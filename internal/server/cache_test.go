package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fgnvm "repro"
	"repro/internal/memo"
)

func TestCacheLRUEviction(t *testing.T) {
	c := memo.NewLRU[string, []byte](2)
	c.Add("a", []byte("A"))
	c.Add("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Add("c", []byte("C")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as LRU")
	}
	if v, ok := c.Get("a"); !ok || !bytes.Equal(v, []byte("A")) {
		t.Error("a lost or corrupted")
	}
	if v, ok := c.Get("c"); !ok || !bytes.Equal(v, []byte("C")) {
		t.Error("c missing")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

func TestCacheReplaceAndDisabled(t *testing.T) {
	c := memo.NewLRU[string, []byte](2)
	c.Add("k", []byte("v1"))
	c.Add("k", []byte("v2"))
	if v, _ := c.Get("k"); !bytes.Equal(v, []byte("v2")) {
		t.Errorf("replace: got %s", v)
	}
	if c.Len() != 1 {
		t.Errorf("Len after replace = %d, want 1", c.Len())
	}

	off := memo.NewLRU[string, []byte](-1)
	off.Add("k", []byte("v"))
	if _, ok := off.Get("k"); ok {
		t.Error("disabled cache returned a hit")
	}
}

func TestFlightCoalescesAndSharesError(t *testing.T) {
	var g memo.Group[string, []byte]
	var calls, joined atomic.Int64
	g.OnCoalesce = func() { joined.Add(1) }
	release := make(chan struct{})
	wantErr := errors.New("boom")

	const n = 5
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := g.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
				calls.Add(1)
				<-release
				return nil, wantErr
			})
			errs[i] = err
		}(i)
	}
	// Wait until all callers are attached to one flight: the first
	// starts it and the other n-1 join.
	waitFor(t, "every caller to attach", func() bool { return joined.Load() == n-1 })
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Errorf("fn ran %d times, want 1", calls.Load())
	}
	for i, err := range errs {
		if err != wantErr {
			t.Errorf("caller %d: err = %v, want shared error", i, err)
		}
	}
}

func TestFlightLastWaiterCancels(t *testing.T) {
	var g memo.Group[string, []byte]
	got := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		_, _, err := g.Do(ctx, "k", func(fctx context.Context) ([]byte, error) {
			<-fctx.Done()
			got <- fctx.Err()
			return nil, fctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("do err = %v, want Canceled", err)
		}
		close(done)
	}()
	time.Sleep(10 * time.Millisecond) // let the flight start
	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("flight ctx err = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flight context was not cancelled by last waiter leaving")
	}
	<-done
}

func TestFlightSequentialCallsRunSeparately(t *testing.T) {
	var g memo.Group[string, []byte]
	var calls atomic.Int64
	run := func() {
		v, shared, err := g.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
			calls.Add(1)
			return []byte("x"), nil
		})
		if err != nil || shared || !bytes.Equal(v, []byte("x")) {
			t.Errorf("do = %q shared=%v err=%v", v, shared, err)
		}
	}
	run()
	run()
	if calls.Load() != 2 {
		t.Errorf("sequential calls coalesced: fn ran %d times, want 2", calls.Load())
	}
}

func TestPoolSaturationAndDrain(t *testing.T) {
	p := NewPool(2, 1)
	release := make(chan struct{})
	var done atomic.Int64
	task := func() { <-release; done.Add(1) }

	// 2 executing + 1 queued fit; the 4th is rejected. Wait for the
	// workers to actually pick tasks up between submits, or all three
	// submissions race for the one queue slot.
	for i := 1; i <= 2; i++ {
		if err := p.TrySubmit(task); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waitFor(t, "task executing", func() bool { return p.InFlight() == int64(i) })
	}
	if err := p.TrySubmit(task); err != nil {
		t.Fatalf("queued submit: %v", err)
	}
	if err := p.TrySubmit(task); !errors.Is(err, ErrSaturated) {
		t.Fatalf("4th submit: err = %v, want ErrSaturated", err)
	}
	close(release)
	p.Close()
	if done.Load() != 3 {
		t.Errorf("completed %d tasks, want all 3 admitted", done.Load())
	}
	if err := p.TrySubmit(func() {}); !errors.Is(err, ErrSaturated) {
		t.Errorf("submit after close: err = %v, want ErrSaturated", err)
	}
}

func TestRunRequestCanonicalKeys(t *testing.T) {
	key := func(body RunRequest) string {
		norm, _, err := body.normalize()
		if err != nil {
			t.Fatalf("normalize: %v", err)
		}
		return norm.cacheKey()
	}
	// Defaults spelled out vs elided: same key.
	a := key(RunRequest{Design: "fgnvm", Benchmark: "mcf"})
	b := key(RunRequest{Design: "fgnvm", Benchmark: "mcf", SAGs: 8, CDs: 2, Seed: 1,
		Instructions: 200_000, Cores: 1, IssueLanes: 1, Scheduler: "frfcfs", Technology: "pcm"})
	if a != b {
		t.Error("equivalent requests hash to different keys")
	}
	// Timeout is execution-only: same key.
	c := key(RunRequest{Design: "fgnvm", Benchmark: "mcf", TimeoutMS: 5000})
	if a != c {
		t.Error("timeout_ms changed the cache key")
	}
	// Design-ignored knobs don't split the key.
	d1 := key(RunRequest{Design: "baseline", Benchmark: "mcf", SAGs: 4})
	d2 := key(RunRequest{Design: "baseline", Benchmark: "mcf", SAGs: 16})
	if d1 != d2 {
		t.Error("baseline key depends on SAGs, which baseline ignores")
	}
	// Genuinely different requests differ.
	for i, other := range []RunRequest{
		{Design: "fgnvm", Benchmark: "lbm"},
		{Design: "fgnvm", Benchmark: "mcf", Seed: 2},
		{Design: "fgnvm", Benchmark: "mcf", CDs: 8},
		{Design: "salp", Benchmark: "mcf"},
		{Design: "fgnvm", Benchmark: "mcf", Technology: "rram"},
	} {
		if key(other) == a {
			t.Errorf("case %d: distinct request collided with base key", i)
		}
	}
}

// TestRunRequestIgnoredFieldKeys: requests that differ only in fields
// the run ignores share one cache key and produce byte-identical
// results. DRAM has no NVM scheduler, issue lanes or cell technology,
// and a GEMM workload is not seeded. A negative core count, which once
// ran as one core under a key of its own, is rejected instead.
func TestRunRequestIgnoredFieldKeys(t *testing.T) {
	run := func(body RunRequest) (string, []byte) {
		norm, o, err := body.normalize()
		if err != nil {
			t.Fatalf("normalize %+v: %v", body, err)
		}
		res, err := fgnvm.Run(o)
		if err != nil {
			t.Fatalf("run %+v: %v", body, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return norm.cacheKey(), b
	}
	dram := RunRequest{Design: "dram", Benchmark: "mcf", Instructions: 20_000}
	gemm := RunRequest{Design: "fgnvm", Workload: &fgnvm.WorkloadSpec{Preset: "gpt2s-attn-qkv"}, Instructions: 20_000}
	for _, tc := range []struct {
		name string
		a, b RunRequest
	}{
		{"dram scheduler", dram, RunRequest{Design: "dram", Benchmark: "mcf", Instructions: 20_000, Scheduler: "fcfs"}},
		{"dram issue lanes", dram, RunRequest{Design: "dram", Benchmark: "mcf", Instructions: 20_000, IssueLanes: 4}},
		{"dram technology", dram, RunRequest{Design: "dram", Benchmark: "mcf", Instructions: 20_000, Technology: "rram"}},
		{"workload seed", gemm, RunRequest{Design: "fgnvm", Workload: &fgnvm.WorkloadSpec{Preset: "gpt2s-attn-qkv"}, Instructions: 20_000, Seed: 7}},
	} {
		ka, ra := run(tc.a)
		kb, rb := run(tc.b)
		if ka != kb {
			t.Errorf("%s: equivalent requests hash to different keys", tc.name)
		}
		if !bytes.Equal(ra, rb) {
			t.Errorf("%s: results differ:\n%s\n%s", tc.name, ra, rb)
		}
	}
	if _, _, err := (RunRequest{Benchmark: "mcf", Cores: -3}).normalize(); err == nil {
		t.Error("cores:-3 accepted")
	}
}

// TestRunRequestWarmupKeys: warm-up settings the library treats alike
// share one cache key. Zero and DefaultWarmupAccesses both run the
// default, every negative value disables warm-up, and without an LLC
// warm-up is ignored altogether.
func TestRunRequestWarmupKeys(t *testing.T) {
	key := func(body RunRequest) string {
		norm, _, err := body.normalize()
		if err != nil {
			t.Fatalf("normalize: %v", err)
		}
		return norm.cacheKey()
	}
	for _, tc := range []struct {
		name string
		a, b RunRequest
		same bool
	}{
		{"default spelled out",
			RunRequest{Benchmark: "mcf"},
			RunRequest{Benchmark: "mcf", WarmupAccesses: fgnvm.DefaultWarmupAccesses}, true},
		{"negatives all disable",
			RunRequest{Benchmark: "mcf", WarmupAccesses: -1},
			RunRequest{Benchmark: "mcf", WarmupAccesses: -5}, true},
		{"ignored without LLC",
			RunRequest{Benchmark: "mcf", SkipLLC: true},
			RunRequest{Benchmark: "mcf", SkipLLC: true, WarmupAccesses: 100}, true},
		{"disabled differs from default",
			RunRequest{Benchmark: "mcf"},
			RunRequest{Benchmark: "mcf", WarmupAccesses: -1}, false},
		{"explicit length differs from default",
			RunRequest{Benchmark: "mcf"},
			RunRequest{Benchmark: "mcf", WarmupAccesses: 100}, false},
		{"skip_llc differs from warmed",
			RunRequest{Benchmark: "mcf"},
			RunRequest{Benchmark: "mcf", SkipLLC: true}, false},
	} {
		if got := key(tc.a) == key(tc.b); got != tc.same {
			t.Errorf("%s: keys equal = %v, want %v", tc.name, got, tc.same)
		}
	}
}

func TestRunRequestValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  RunRequest
	}{
		{"no workload", RunRequest{}},
		{"bad design", RunRequest{Design: "warp", Benchmark: "mcf"}},
		{"bad bench", RunRequest{Benchmark: "nope"}},
		{"bad mix entry", RunRequest{Mix: []string{"mcf", "nope"}}},
		{"bad scheduler", RunRequest{Benchmark: "mcf", Scheduler: "lifo"}},
		{"bad technology", RunRequest{Benchmark: "mcf", Technology: "fram"}},
	} {
		if _, _, err := tc.req.normalize(); err == nil {
			t.Errorf("%s: normalize accepted invalid request", tc.name)
		}
	}
	// A valid mix canonicalizes benchmark/cores away.
	norm, o, err := RunRequest{Mix: []string{"mcf", "lbm"}}.normalize()
	if err != nil {
		t.Fatalf("mix normalize: %v", err)
	}
	if norm.Benchmark != "" || norm.Cores != 2 || len(o.Mix) != 2 {
		t.Errorf("mix canonical form wrong: %+v", norm)
	}
}
