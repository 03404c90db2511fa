package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	fgnvm "repro"
)

// newTestServer builds a Server plus an httptest front-end. runFn nil
// keeps the real simulator.
func newTestServer(t *testing.T, cfg Config, runFn func(context.Context, fgnvm.Options) (fgnvm.Result, error)) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if runFn != nil {
		s.runFn = runFn
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// metricValue extracts one counter from the /metrics text.
func metricValue(t *testing.T, ts *httptest.Server, name string) uint64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(b), "\n") {
		var v uint64
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, b)
	return 0
}

// TestRunEndToEndAndCache exercises the real simulator: a cold POST
// /v1/run computes a Result, and a repeat of the same request is served
// from cache with a byte-identical body and a /metrics hit count.
func TestRunEndToEndAndCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2}, nil)
	body := `{"design":"fgnvm","benchmark":"mcf","instructions":2000}`

	resp1, b1 := postJSON(t, ts.URL+"/v1/run", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold run: status %d, body %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("cold run X-Cache = %q, want miss", got)
	}
	var res fgnvm.Result
	if err := json.Unmarshal(b1, &res); err != nil {
		t.Fatalf("cold run body is not a Result: %v", err)
	}
	if res.IPC <= 0 || res.Reads == 0 {
		t.Errorf("implausible result: IPC=%v Reads=%d", res.IPC, res.Reads)
	}

	// Semantically identical request spelled differently (defaults
	// explicit) must hit the same cache entry.
	resp2, b2 := postJSON(t, ts.URL+"/v1/run",
		`{"design":"fgnvm","benchmark":"mcf","instructions":2000,"sags":8,"cds":2,"seed":1,"scheduler":"frfcfs"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached run: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("repeat run X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("cache hit not byte-identical to cold run:\ncold:   %s\ncached: %s", b1, b2)
	}
	if hits := metricValue(t, ts, "fgnvm_cache_hits_total"); hits != 1 {
		t.Errorf("fgnvm_cache_hits_total = %d, want 1", hits)
	}
	if runs := metricValue(t, ts, "fgnvm_runs_started_total"); runs != 1 {
		t.Errorf("fgnvm_runs_started_total = %d, want 1", runs)
	}
}

// TestCoalescing proves N identical concurrent requests execute exactly
// one simulation and all receive the same bytes.
func TestCoalescing(t *testing.T) {
	const n = 8
	var calls atomic.Int64
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 4}, func(ctx context.Context, o fgnvm.Options) (fgnvm.Result, error) {
		calls.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return fgnvm.Result{}, ctx.Err()
		}
		return fgnvm.Result{Benchmark: o.Benchmark, IPC: 1}, nil
	})

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := postJSON(t, ts.URL+"/v1/run", `{"benchmark":"mcf"}`)
			codes[i], bodies[i] = resp.StatusCode, b
		}(i)
	}
	// All n requests must be attached to the one flight before the
	// simulation is allowed to finish: 1 leader + (n-1) coalesced.
	waitFor(t, "n-1 coalesced waiters", func() bool {
		return s.metrics.coalesced.Load() == n-1
	})
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Errorf("simulations executed = %d, want exactly 1", got)
	}
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs from request 0", i)
		}
	}
	if runs := metricValue(t, ts, "fgnvm_runs_started_total"); runs != 1 {
		t.Errorf("fgnvm_runs_started_total = %d, want 1", runs)
	}
}

// TestStoreWrittenOncePerFlight proves a coalesced flight writes its
// bytes to the disk store once, not once per caller. The store's
// directory is removed after New, so every write fails and is counted
// in fgnvm_store_errors_total: the count of write attempts.
func TestStoreWrittenOncePerFlight(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	var calls atomic.Int64
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 4, StoreDir: dir}, func(ctx context.Context, o fgnvm.Options) (fgnvm.Result, error) {
		calls.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return fgnvm.Result{}, ctx.Err()
		}
		return fgnvm.Result{Benchmark: o.Benchmark, IPC: 1}, nil
	})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/run", `{"benchmark":"mcf"}`)
			codes[i] = resp.StatusCode
		}(i)
	}
	waitFor(t, "n-1 coalesced waiters", func() bool {
		return s.metrics.coalesced.Load() == n-1
	})
	close(release)
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d: status %d", i, code)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("simulations executed = %d, want 1", got)
	}
	if got := metricValue(t, ts, "fgnvm_store_errors_total"); got != 1 {
		t.Errorf("store write attempts = %d, want 1 for %d coalesced requests", got, n)
	}
}

// TestCancellationFreesWorker proves a client that goes away cancels
// the underlying run's context and the worker frees up (in-flight
// gauge back to 0).
func TestCancellationFreesWorker(t *testing.T) {
	runCanceled := make(chan error, 1)
	s, ts := newTestServer(t, Config{Workers: 1}, func(ctx context.Context, o fgnvm.Options) (fgnvm.Result, error) {
		<-ctx.Done() // a well-behaved RunContext returns when cancelled
		runCanceled <- ctx.Err()
		return fgnvm.Result{}, ctx.Err()
	})

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run",
		strings.NewReader(`{"benchmark":"mcf"}`))
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errCh <- err
	}()

	waitFor(t, "run to start", func() bool { return s.pool.InFlight() == 1 })
	cancel() // client disconnects mid-run

	if err := <-errCh; err == nil {
		t.Error("client Do returned nil error after cancel")
	}
	select {
	case err := <-runCanceled:
		if err != context.Canceled {
			t.Errorf("run ctx error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run context never cancelled after client disconnect")
	}
	waitFor(t, "worker to free", func() bool { return s.pool.InFlight() == 0 })
	waitFor(t, "canceled counter", func() bool { return s.metrics.canceled.Load() == 1 })
}

// TestTimeoutReturns504 proves a per-request timeout_ms bounds the run
// and maps to 504.
func TestTimeoutReturns504(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1}, func(ctx context.Context, o fgnvm.Options) (fgnvm.Result, error) {
		<-ctx.Done()
		return fgnvm.Result{}, ctx.Err()
	})
	resp, _ := postJSON(t, ts.URL+"/v1/run", `{"benchmark":"mcf","timeout_ms":50}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	waitFor(t, "worker to free", func() bool { return s.pool.InFlight() == 0 })
}

// TestTimeoutCannotExceedDefault proves timeout_ms only shortens the
// server's deadline: a slow request asking for a minute, or for more
// than a time.Duration holds, on a server whose default is 100 ms is
// cancelled and answered 504 at the default deadline.
func TestTimeoutCannotExceedDefault(t *testing.T) {
	const def = 100 * time.Millisecond
	cancelled := make(chan time.Time, 1)
	s, ts := newTestServer(t, Config{Workers: 1, DefaultTimeout: def}, func(ctx context.Context, o fgnvm.Options) (fgnvm.Result, error) {
		<-ctx.Done()
		cancelled <- time.Now()
		return fgnvm.Result{}, ctx.Err()
	})
	// The client gives up long before either timeout_ms would end.
	client := &http.Client{Timeout: 5 * time.Second}
	for seed, ms := range []int64{60_000, math.MaxInt64} {
		start := time.Now()
		body := fmt.Sprintf(`{"benchmark":"mcf","seed":%d,"timeout_ms":%d}`, seed+1, ms)
		resp, err := client.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("timeout_ms %d: no answer: %v", ms, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("timeout_ms %d: status = %d, want 504", ms, resp.StatusCode)
		}
		// Generous bounds: the timeout asked for must not show, and
		// neither may an instant expiry; scheduling delays may.
		if took := time.Since(start); took < def/2 || took > 10*def {
			t.Errorf("timeout_ms %d: the 504 came %v after the request, want about the %v default", ms, took, def)
		}
		select {
		case at := <-cancelled:
			if after := at.Sub(start); after > 10*def {
				t.Errorf("timeout_ms %d: run cancelled %v after the request, want about the %v default", ms, after, def)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timeout_ms %d: the run never started or was never cancelled", ms)
		}
		waitFor(t, "worker to free", func() bool { return s.pool.InFlight() == 0 })
	}
}

// TestSaturationReturns429 proves queue-depth backpressure: with one
// worker busy and the queue full, the next distinct request is rejected
// with 429 + Retry-After, and service recovers once the pool drains.
func TestSaturationReturns429(t *testing.T) {
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1}, func(ctx context.Context, o fgnvm.Options) (fgnvm.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return fgnvm.Result{}, ctx.Err()
		}
		return fgnvm.Result{IPC: float64(o.Seed)}, nil
	})

	// Distinct seeds → distinct cache keys → no coalescing.
	post := func(seed int) (*http.Response, []byte) {
		return postJSON(t, ts.URL+"/v1/run",
			fmt.Sprintf(`{"benchmark":"mcf","seed":%d}`, seed))
	}
	results := make(chan int, 2)
	go func() { r, _ := post(1); results <- r.StatusCode }() // occupies the worker
	waitFor(t, "first run executing", func() bool { return s.pool.InFlight() == 1 })
	go func() { r, _ := post(2); results <- r.StatusCode }() // sits in the queue
	waitFor(t, "second run queued", func() bool { return s.pool.QueueLen() == 1 })

	resp, _ := post(3) // worker busy + queue full → rejected
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After header")
	}
	if rej := metricValue(t, ts, "fgnvm_rejected_total"); rej != 1 {
		t.Errorf("fgnvm_rejected_total = %d, want 1", rej)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("admitted request returned %d, want 200", code)
		}
	}
	// Recovered: the same (now uncached) request is admitted again.
	resp, _ = post(3)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-drain status = %d, want 200", resp.StatusCode)
	}
}

// TestFigure4AndSweepEndpoints exercises the experiment endpoints end
// to end with a tiny workload, including their cache path.
func TestFigure4AndSweepEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations")
	}
	_, ts := newTestServer(t, Config{Workers: 2}, nil)

	resp, b := postJSON(t, ts.URL+"/v1/figure4", `{"benchmarks":["mcf"],"instructions":2000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("figure4: status %d, body %s", resp.StatusCode, b)
	}
	var f4 fgnvm.Figure4Result
	if err := json.Unmarshal(b, &f4); err != nil {
		t.Fatalf("figure4 body: %v", err)
	}
	if len(f4.Rows) != 1 || f4.Rows[0].Benchmark != "mcf" || f4.Rows[0].FgNVM <= 0 {
		t.Errorf("implausible figure4 result: %+v", f4)
	}
	resp2, b2 := postJSON(t, ts.URL+"/v1/figure4", `{"benchmarks":["mcf"],"instructions":2000,"parallel":4}`)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Error("figure4 repeat (differing only in parallel) was not a cache hit")
	}
	if !bytes.Equal(b, b2) {
		t.Error("figure4 cache hit not byte-identical")
	}

	resp, b = postJSON(t, ts.URL+"/v1/sweep", `{"axis":"cds","values":[1,2],"instructions":2000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d, body %s", resp.StatusCode, b)
	}
	var sw fgnvm.SweepResult
	if err := json.Unmarshal(b, &sw); err != nil {
		t.Fatalf("sweep body: %v", err)
	}
	if len(sw.Points) != 2 || sw.Points[0].Value != 1 || sw.Points[1].Value != 2 {
		t.Errorf("implausible sweep result: %+v", sw)
	}
}

// TestBadRequests maps validation failures to 400s.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxInstructions: 10_000}, nil)
	for _, tc := range []struct {
		name, path, body string
	}{
		{"unknown design", "/v1/run", `{"design":"quantum","benchmark":"mcf"}`},
		{"unknown benchmark", "/v1/run", `{"benchmark":"nope"}`},
		{"no workload", "/v1/run", `{}`},
		{"unknown field", "/v1/run", `{"benchmark":"mcf","bogus":1}`},
		{"unknown scheduler", "/v1/run", `{"benchmark":"mcf","scheduler":"magic"}`},
		{"over instruction cap", "/v1/run", `{"benchmark":"mcf","instructions":1000000}`},
		{"too many issue lanes", "/v1/run", `{"benchmark":"mcf","issue_lanes":16777216}`},
		{"negative cores", "/v1/run", `{"benchmark":"mcf","cores":-3}`},
		{"warm-up past the cap", "/v1/run", `{"benchmark":"mcf","warmup_accesses":4611686018427387904}`},
		{"grid over the bank-state budget", "/v1/run", `{"design":"fgnvm","benchmark":"mcf","sags":16384,"cds":64}`},
		{"unknown axis", "/v1/sweep", `{"axis":"voltage"}`},
		{"figure4 bad bench", "/v1/figure4", `{"benchmarks":["nope"]}`},
		{"figure4 duplicate bench", "/v1/figure4", `{"benchmarks":["mcf","lbm","mcf"],"instructions":1000}`},
		{"too many sweep values", "/v1/sweep", `{"axis":"rob","instructions":1000,"values":[` + robValues(maxSweepValues+1) + `]}`},
		{"sweep value a run refuses", "/v1/sweep", `{"axis":"cores","instructions":1000,"values":[1,16]}`},
		{"sweep ROB past the cap", "/v1/sweep", `{"axis":"rob","instructions":1000,"values":[2000000000]}`},
	} {
		resp, b := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, b)
		}
	}
}

// robValues lists n distinct valid reorder-buffer sizes as JSON numbers.
func robValues(n int) string {
	vs := make([]string, n)
	for i := range vs {
		vs[i] = strconv.Itoa(64 + i)
	}
	return strings.Join(vs, ",")
}

// TestHealthz sanity-checks the liveness endpoint.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1}, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
}

// TestCoalescedWaiterSurvivesLeaderCancel proves reference-counted
// cancellation: the leader client disconnecting must NOT kill the run
// another client is still waiting for.
func TestCoalescedWaiterSurvivesLeaderCancel(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	s, ts := newTestServer(t, Config{Workers: 1}, func(ctx context.Context, o fgnvm.Options) (fgnvm.Result, error) {
		calls.Add(1)
		select {
		case <-release:
			return fgnvm.Result{IPC: 2}, nil
		case <-ctx.Done():
			return fgnvm.Result{}, ctx.Err()
		}
	})

	// Leader with a cancellable context.
	lctx, lcancel := context.WithCancel(context.Background())
	lreq, _ := http.NewRequestWithContext(lctx, "POST", ts.URL+"/v1/run",
		strings.NewReader(`{"benchmark":"mcf"}`))
	leaderDone := make(chan struct{})
	go func() {
		resp, _ := http.DefaultClient.Do(lreq)
		if resp != nil {
			resp.Body.Close()
		}
		close(leaderDone)
	}()
	waitFor(t, "run to start", func() bool { return s.pool.InFlight() == 1 })

	// Second client joins the same flight.
	type outcome struct {
		code int
		body []byte
	}
	followerCh := make(chan outcome, 1)
	go func() {
		resp, b := postJSON(t, ts.URL+"/v1/run", `{"benchmark":"mcf"}`)
		followerCh <- outcome{resp.StatusCode, b}
	}()
	waitFor(t, "follower coalesced", func() bool { return s.metrics.coalesced.Load() == 1 })

	lcancel() // leader walks away; follower still wants the result
	<-leaderDone
	close(release)

	got := <-followerCh
	if got.code != http.StatusOK {
		t.Fatalf("follower status = %d, want 200 (leader cancel must not kill shared run)", got.code)
	}
	var res fgnvm.Result
	if err := json.Unmarshal(got.body, &res); err != nil || res.IPC != 2 {
		t.Errorf("follower got %s (err %v), want the completed result", got.body, err)
	}
	if calls.Load() != 1 {
		t.Errorf("simulations executed = %d, want 1", calls.Load())
	}
}

// TestRunStallReport proves stall_report attaches telemetry (the result
// carries a conserved attribution breakdown plus the occupancy matrix)
// and splits the cache key from the uninstrumented run.
func TestRunStallReport(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2}, nil)

	resp, b := postJSON(t, ts.URL+"/v1/run",
		`{"design":"fgnvm","benchmark":"lbm","instructions":2000,"stall_report":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, b)
	}
	var res fgnvm.Result
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatalf("body is not a Result: %v", err)
	}
	if res.Stalls == nil {
		t.Fatal("stall_report run returned no Stalls breakdown")
	}
	if got, want := res.Stalls.Sum(), res.Stalls.QueuedWaitCycles; got != want {
		t.Errorf("attribution not conserved: sum %d != queued-wait %d", got, want)
	}
	if len(res.TileOccupancy) != 8 || len(res.TileOccupancy[0]) != 2 {
		t.Errorf("TileOccupancy shape = %dx?, want 8x2", len(res.TileOccupancy))
	}

	// The uninstrumented run is a different result; its key must differ.
	resp2, b2 := postJSON(t, ts.URL+"/v1/run",
		`{"design":"fgnvm","benchmark":"lbm","instructions":2000}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("plain run: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("plain run after stall_report run: X-Cache = %q, want miss", got)
	}
	var plain fgnvm.Result
	if err := json.Unmarshal(b2, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Stalls != nil {
		t.Error("uninstrumented run unexpectedly carries a Stalls breakdown")
	}
}

// TestPanicContained: a computation that panics on a pool worker fails
// only its own request — a 500 naming the cache key on /v1/run and
// /v1/sweep, an error event on /v1/sweep/stream — the next request is
// served, and fgnvm_panics_total counts every panic.
func TestPanicContained(t *testing.T) {
	log.SetOutput(io.Discard) // the recovered panics log their stacks
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	s, ts := newTestServer(t, Config{Workers: 2}, func(ctx context.Context, o fgnvm.Options) (fgnvm.Result, error) {
		if o.Benchmark == "lbm" {
			panic("simulated bug")
		}
		return fgnvm.Result{Benchmark: o.Benchmark, IPC: 1, Energy: fgnvm.EnergyBreakdown{TotalPJ: 100}}, nil
	})

	norm, _, err := RunRequest{Benchmark: "lbm"}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	resp, b := postJSON(t, ts.URL+"/v1/run", `{"benchmark":"lbm"}`)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(b), norm.cacheKey()) {
		t.Errorf("/v1/run panic: status %d, body %q; want 500 naming %s", resp.StatusCode, b, norm.cacheKey())
	}
	if resp, b := postJSON(t, ts.URL+"/v1/run", `{"benchmark":"mcf"}`); resp.StatusCode != http.StatusOK {
		t.Errorf("/v1/run after a panic: status %d, body %s", resp.StatusCode, b)
	}

	// Both points panic (their baseline runs are lbm too).
	resp, b = postJSON(t, ts.URL+"/v1/sweep", `{"axis":"cds","values":[1,2],"benchmark":"lbm","instructions":1000}`)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(b), "sweeppoint:") {
		t.Errorf("/v1/sweep panic: status %d, body %q; want 500 naming a sweep point", resp.StatusCode, b)
	}
	if resp, b := postJSON(t, ts.URL+"/v1/sweep", `{"axis":"cds","values":[1,2],"benchmark":"mcf","instructions":1000}`); resp.StatusCode != http.StatusOK {
		t.Errorf("/v1/sweep after a panic: status %d, body %s", resp.StatusCode, b)
	}

	resp, b = postJSON(t, ts.URL+"/v1/sweep/stream", `{"axis":"cds","values":[4],"benchmark":"lbm","instructions":1000}`)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var last streamEvent
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("stream tail %q: %v", lines[len(lines)-1], err)
	}
	if resp.StatusCode != http.StatusOK || last.Event != "error" || !strings.Contains(last.Error, "panicked") {
		t.Errorf("/v1/sweep/stream panic: status %d, last event %+v; want an error event", resp.StatusCode, last)
	}

	if got := metricValue(t, ts, "fgnvm_panics_total"); got != 4 {
		t.Errorf("fgnvm_panics_total = %d, want 4", got)
	}
	// A worker leaves the pool just after its response is written.
	waitFor(t, "workers to free", func() bool { return s.pool.InFlight() == 0 })
}

// TestPanicContainedFigure4 is TestPanicContained for /v1/figure4: a
// Figure 4 computation that panics on a pool worker answers a 500
// naming its cache key, the next request is served, and
// fgnvm_panics_total counts the panic.
func TestPanicContainedFigure4(t *testing.T) {
	log.SetOutput(io.Discard) // the recovered panic logs its stack
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.figure4Fn = func(ctx context.Context, p fgnvm.ExperimentParams) (fgnvm.Figure4Result, error) {
		if slices.Contains(p.Benchmarks, "lbm") {
			panic("simulated bug")
		}
		return fgnvm.Figure4Result{Rows: []fgnvm.Figure4Row{{Benchmark: p.Benchmarks[0], BaselineIPC: 1}}}, nil
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	norm, _, err := Figure4Request{Benchmarks: []string{"lbm"}}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	resp, b := postJSON(t, ts.URL+"/v1/figure4", `{"benchmarks":["lbm"]}`)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(b), norm.cacheKey()) {
		t.Errorf("/v1/figure4 panic: status %d, body %q; want 500 naming %s", resp.StatusCode, b, norm.cacheKey())
	}
	if resp, b := postJSON(t, ts.URL+"/v1/figure4", `{"benchmarks":["mcf"]}`); resp.StatusCode != http.StatusOK {
		t.Errorf("/v1/figure4 after a panic: status %d, body %s", resp.StatusCode, b)
	}
	if got := metricValue(t, ts, "fgnvm_panics_total"); got != 1 {
		t.Errorf("fgnvm_panics_total = %d, want 1", got)
	}
	// A worker leaves the pool just after its response is written.
	waitFor(t, "workers to free", func() bool { return s.pool.InFlight() == 0 })
}
