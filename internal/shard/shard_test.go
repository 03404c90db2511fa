package shard

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// TestPlanPartitions proves the assignment is an exact partition: every
// index owned exactly once, shards sorted, sizes within one.
func TestPlanPartitions(t *testing.T) {
	for points := 0; points <= 17; points++ {
		for replicas := 1; replicas <= 5; replicas++ {
			a := Plan(points, replicas)
			owned := make([]int, points)
			min, max := points+1, 0
			for r := 0; r < a.Replicas; r++ {
				sh := a.Shard(r)
				if len(sh) < min {
					min = len(sh)
				}
				if len(sh) > max {
					max = len(sh)
				}
				for _, i := range sh {
					owned[i]++
					if a.Owner(i) != r {
						t.Fatalf("p=%d r=%d: Owner(%d) = %d, want %d", points, replicas, i, a.Owner(i), r)
					}
				}
			}
			for i, n := range owned {
				if n != 1 {
					t.Fatalf("p=%d r=%d: index %d owned %d times", points, replicas, i, n)
				}
			}
			if points > 0 && max-min > 1 {
				t.Fatalf("p=%d r=%d: shard sizes spread %d..%d", points, replicas, min, max)
			}
		}
	}
}

// TestPlanStability pins the assignment as a pure function — replicas
// plan independently and must agree — and pins its append-stability:
// growing the sweep never moves an existing point to another shard.
func TestPlanStability(t *testing.T) {
	a, b := Plan(10, 3), Plan(10, 3)
	if !reflect.DeepEqual(a.Shard(1), b.Shard(1)) {
		t.Fatal("identical plans disagree")
	}
	grown := Plan(12, 3)
	for i := 0; i < 10; i++ {
		if a.Owner(i) != grown.Owner(i) {
			t.Fatalf("appending points moved point %d: shard %d -> %d", i, a.Owner(i), grown.Owner(i))
		}
	}
	// No empty shards: replicas clamp to points.
	if got := Plan(2, 5).Replicas; got != 2 {
		t.Errorf("Plan(2, 5).Replicas = %d, want 2", got)
	}
}

// TestPeerSweep exercises the HTTP client: shard header set, body
// forwarded, non-200 mapped to an error, cancellation honored.
func TestPeerSweep(t *testing.T) {
	var gotHeader, gotBody string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader = r.Header.Get(Header)
		b := make([]byte, r.ContentLength)
		r.Body.Read(b)
		gotBody = string(b)
		if r.URL.Path != "/v1/sweep" {
			http.Error(w, "wrong path", http.StatusNotFound)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer ts.Close()

	p := Peer{BaseURL: ts.URL}
	out, err := p.Sweep(context.Background(), []byte(`{"axis":"cds"}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `{"ok":true}` {
		t.Errorf("body = %q", out)
	}
	if gotHeader != "1" {
		t.Errorf("shard header = %q, want 1", gotHeader)
	}
	if gotBody != `{"axis":"cds"}` {
		t.Errorf("forwarded body = %q", gotBody)
	}

	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()
	if _, err := (Peer{BaseURL: bad.URL}).Sweep(context.Background(), nil); err == nil {
		t.Error("500 from peer not surfaced as error")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Sweep(ctx, nil); err == nil {
		t.Error("cancelled context not surfaced as error")
	}
}
