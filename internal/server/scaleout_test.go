// Scale-out end-to-end tests: sharded sweeps must be byte-identical
// to the single-process library sweep at any replica count, the disk
// store must survive a process restart, and a dropped streaming client
// must be able to reconnect and resume from stored points without
// recomputing them.

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	fgnvm "repro"
)

// TestShardedSweepByteIdentical runs the same sweep against 1, 2, and
// 3 in-process replicas and against the library directly: all four
// answers must be byte-identical regardless of how the points were
// distributed.
func TestShardedSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	params := fgnvm.SweepParams{
		Axis:         "cds",
		Values:       []int{1, 2, 4},
		Design:       fgnvm.DesignFgNVM,
		Benchmark:    "mcf",
		Instructions: 2000,
		Seed:         1,
	}
	want, err := fgnvm.Sweep(params)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes = append(wantBytes, '\n')

	body := `{"axis":"cds","values":[1,2,4],"benchmark":"mcf","instructions":2000}`
	for _, replicas := range []int{1, 2, 3} {
		// Fresh peers per round: nothing cached, every point computed.
		var peerURLs []string
		for i := 1; i < replicas; i++ {
			_, pts := newTestServer(t, Config{Workers: 2}, nil)
			peerURLs = append(peerURLs, pts.URL)
		}
		coord, cts := newTestServer(t, Config{Workers: 2, Peers: peerURLs}, nil)

		resp, got := postJSON(t, cts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%d replicas: status %d, body %s", replicas, resp.StatusCode, got)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Errorf("%d replicas: sweep not byte-identical to library Sweep\nwant: %s\ngot:  %s",
				replicas, wantBytes, got)
		}
		if replicas > 1 {
			if coord.metrics.shardFanouts.Load() != 1 {
				t.Errorf("%d replicas: shardFanouts = %d, want 1",
					replicas, coord.metrics.shardFanouts.Load())
			}
			if coord.metrics.shardRemotePoints.Load() == 0 {
				t.Errorf("%d replicas: no points computed remotely", replicas)
			}
			if v := metricValue(t, cts, "fgnvm_shard_remote_points_total"); v == 0 {
				t.Error("/metrics does not report remote points")
			}
		}
	}
}

// TestShardedSweepPeerFailure proves a dead peer degrades to local
// execution: the sweep still completes, still byte-identical, and the
// fallback is counted.
func TestShardedSweepPeerFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "replica on fire", http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	coord, cts := newTestServer(t, Config{Workers: 2, Peers: []string{dead.URL}}, nil)

	params := fgnvm.SweepParams{
		Axis: "cds", Values: []int{1, 2}, Design: fgnvm.DesignFgNVM,
		Benchmark: "mcf", Instructions: 2000, Seed: 1,
	}
	want, err := fgnvm.Sweep(params)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, _ := json.Marshal(want)
	wantBytes = append(wantBytes, '\n')

	resp, got := postJSON(t, cts.URL+"/v1/sweep", `{"axis":"cds","values":[1,2],"benchmark":"mcf","instructions":2000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, wantBytes) {
		t.Errorf("fallback sweep differs from library Sweep\nwant: %s\ngot:  %s", wantBytes, got)
	}
	if coord.metrics.shardFallbacks.Load() != 1 {
		t.Errorf("shardFallbacks = %d, want 1", coord.metrics.shardFallbacks.Load())
	}
}

// TestShardedSweepPeerDiesMidStream: a peer that streams part of its
// shard and then hangs up (or repeats a point) hands only its
// undelivered points back to local execution, on the streaming and on
// the blocking endpoint alike (both relay the peer's stream). The
// relayed stream carries exactly one point event per plan index and
// its done count never passes total; the blocking answer carries all
// four points; and only the three undelivered points simulate locally.
func TestShardedSweepPeerDiesMidStream(t *testing.T) {
	// The peer owns plan indices 1 and 3 (values 2 and 8); it delivers
	// shard-local index 0 (plan index 1) and ends the stream.
	const point = `{"event":"point","index":0,"value":2,"point":{"value":2,"ipc":1}}` + "\n"
	const body = `{"axis":"cds","values":[1,2,4,8],"benchmark":"mcf","instructions":1000}`
	for _, tc := range []struct{ name, stream string }{
		{"closes", point},
		{"repeats", point + point},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, ep := range []struct{ name, path string }{
				{"stream", "/v1/sweep/stream"},
				{"blocking", "/v1/sweep"},
			} {
				t.Run(ep.name, func(t *testing.T) {
					peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
						w.Header().Set("Content-Type", "application/x-ndjson")
						w.Write([]byte(tc.stream))
					}))
					t.Cleanup(peer.Close)
					var calls atomic.Int64
					stub := func(ctx context.Context, o fgnvm.Options) (fgnvm.Result, error) {
						calls.Add(1)
						return fgnvm.Result{
							IPC:    1 + float64(o.CDs),
							Energy: fgnvm.EnergyBreakdown{TotalPJ: 100},
						}, nil
					}
					coord, cts := newTestServer(t, Config{Workers: 2, Peers: []string{peer.URL}}, stub)

					if ep.name == "blocking" {
						resp, b := postJSON(t, cts.URL+ep.path, body)
						if resp.StatusCode != http.StatusOK {
							t.Fatalf("status %d, body %s", resp.StatusCode, b)
						}
						var res fgnvm.SweepResult
						if err := json.Unmarshal(b, &res); err != nil {
							t.Fatal(err)
						}
						for i, want := range []int{1, 2, 4, 8} {
							if i >= len(res.Points) || res.Points[i].Value != want {
								t.Fatalf("points %+v, want values 1, 2, 4, 8", res.Points)
							}
						}
					} else {
						checkRelayedStream(t, cts.URL+ep.path, body, 4)
					}
					if got := coord.metrics.shardFallbacks.Load(); got != 1 {
						t.Errorf("shardFallbacks = %d, want 1", got)
					}
					if got := calls.Load(); got != 6 {
						t.Errorf("runFn calls = %d, want 6 (two per undelivered point)", got)
					}
				})
			}
		})
	}
}

// checkRelayedStream reads a /v1/sweep/stream answer and requires one
// point event per plan index, in-order done counts and a done event.
func checkRelayedStream(t *testing.T, url, body string, total int) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	seen := map[int]int{} // plan index → point events
	points, done := 0, false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case "point":
			points++
			seen[ev.Index]++
			if ev.Done != points || ev.Total != total || ev.Done > ev.Total {
				t.Errorf("point event %d reads done=%d total=%d", points, ev.Done, ev.Total)
			}
		case "error":
			t.Fatalf("stream errored: %s", ev.Error)
		case "done":
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if seen[i] != 1 {
			t.Errorf("plan index %d: %d point events, want 1", i, seen[i])
		}
	}
	if points != total {
		t.Errorf("%d point events, want %d", points, total)
	}
	if !done {
		t.Error("stream never sent a done event")
	}
}

// TestStoreSurvivesRestart proves a result computed before a "restart"
// (new Server, same store directory) is served from the disk store —
// byte-identical, no simulation started in the new process.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	stub := func(ctx context.Context, o fgnvm.Options) (fgnvm.Result, error) {
		calls.Add(1)
		return fgnvm.Result{Benchmark: o.Benchmark, IPC: 1.5}, nil
	}

	s1, ts1 := newTestServer(t, Config{Workers: 1, StoreDir: dir}, stub)
	resp1, b1 := postJSON(t, ts1.URL+"/v1/run", `{"benchmark":"mcf"}`)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("cold run: status %d, X-Cache %q", resp1.StatusCode, resp1.Header.Get("X-Cache"))
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, Config{Workers: 1, StoreDir: dir}, stub)
	resp2, b2 := postJSON(t, ts2.URL+"/v1/run", `{"benchmark":"mcf"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-restart run: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "store" {
		t.Errorf("post-restart X-Cache = %q, want store", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("store hit not byte-identical:\nbefore: %s\nafter:  %s", b1, b2)
	}
	if calls.Load() != 1 {
		t.Errorf("simulations executed = %d, want 1 (restart must not recompute)", calls.Load())
	}
	if s2.metrics.runsStarted.Load() != 0 {
		t.Errorf("new process runsStarted = %d, want 0", s2.metrics.runsStarted.Load())
	}
	if hits := metricValue(t, ts2, "fgnvm_store_hits_total"); hits != 1 {
		t.Errorf("fgnvm_store_hits_total = %d, want 1", hits)
	}
}

// streamEvent decodes any /v1/sweep/stream NDJSON line in tests.
type streamEvent struct {
	Event  string          `json:"event"`
	Index  int             `json:"index"`
	Value  int             `json:"value"`
	Cached bool            `json:"cached"`
	Done   int             `json:"done"`
	Total  int             `json:"total"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// TestStreamDisconnectResume is the resumability acceptance test: a
// client drops mid-sweep after two of three points; on reconnect the
// finished points replay from the store (cached, no new simulations)
// and only the remaining point computes.
func TestStreamDisconnectResume(t *testing.T) {
	dir := t.TempDir()
	// Each simulation must take a token, so the test controls exactly
	// how many runs (2 per point) finish before the disconnect.
	tokens := make(chan struct{}, 16)
	var completed atomic.Int64
	stub := func(ctx context.Context, o fgnvm.Options) (fgnvm.Result, error) {
		select {
		case <-tokens:
		case <-ctx.Done():
			return fgnvm.Result{}, ctx.Err()
		}
		completed.Add(1)
		// Strictly positive IPC and energy keep every derived ratio
		// finite (NaN is not representable in JSON); baseline options
		// reach runFn with zero SAGs/CDs (defaults apply inside Run).
		return fgnvm.Result{
			IPC:    1 + float64(10*o.CDs+o.SAGs),
			Energy: fgnvm.EnergyBreakdown{TotalPJ: 100},
		}, nil
	}
	s, ts := newTestServer(t, Config{Workers: 1, StoreDir: dir}, stub)
	const body = `{"axis":"cds","values":[1,2,4],"benchmark":"mcf","instructions":1000}`

	// First attempt: allow exactly two points (four runs), then vanish.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/sweep/stream", strings.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	for i := 0; i < 4; i++ {
		tokens <- struct{}{}
	}
	finished := map[int]bool{}
	sc := bufio.NewScanner(resp.Body)
	for len(finished) < 2 && sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if ev.Event == "point" {
			finished[ev.Value] = true
		}
	}
	cancel() // mid-sweep disconnect
	resp.Body.Close()
	waitFor(t, "pool to drain after disconnect", func() bool { return s.pool.InFlight() == 0 })
	if got := completed.Load(); got != 4 {
		t.Fatalf("runs completed before disconnect = %d, want 4", got)
	}

	// Reconnect: no token gating any more.
	close(tokens)
	req2, _ := http.NewRequest("POST", ts.URL+"/v1/sweep/stream", strings.NewReader(body))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var doneResult json.RawMessage
	points := map[int]bool{} // value → cached
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc2.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc2.Text(), err)
		}
		switch ev.Event {
		case "point":
			points[ev.Value] = ev.Cached
		case "error":
			t.Fatalf("resumed stream errored: %s", ev.Error)
		case "done":
			doneResult = ev.Result
		}
	}
	if err := sc2.Err(); err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("resumed stream reported %d points, want 3 (%v)", len(points), points)
	}
	for v := range finished {
		if !points[v] {
			t.Errorf("point %d finished before disconnect but was recomputed on resume", v)
		}
	}
	if got := completed.Load(); got != 6 {
		t.Errorf("total runs completed = %d, want 6 (only the unfinished point resimulates)", got)
	}
	if doneResult == nil {
		t.Fatal("resumed stream never sent a done event")
	}

	// The terminal event's result must be byte-identical to what the
	// blocking endpoint returns for the same request.
	resp3, b3 := postJSON(t, ts.URL+"/v1/sweep", body)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("/v1/sweep after stream: status %d", resp3.StatusCode)
	}
	if resp3.Header.Get("X-Cache") != "hit" {
		t.Errorf("/v1/sweep after full stream X-Cache = %q, want hit", resp3.Header.Get("X-Cache"))
	}
	if !bytes.Equal(doneResult, bytes.TrimSuffix(b3, []byte("\n"))) {
		t.Errorf("stream done result differs from /v1/sweep body\nstream: %s\nsweep:  %s", doneResult, b3)
	}
}
