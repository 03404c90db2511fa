// Package server is the simulation-as-a-service layer: an HTTP/JSON
// front-end over the fgnvm library that turns the simulator's
// determinism into serving throughput. Every result — a run, a Figure
// 4, one sweep point — is computed through one path, cachedCompute,
// which stacks four tiers under a canonical cache key:
//
//  1. an LRU cache (internal/memo) of serialized results keyed by a
//     canonical hash of the resolved request (identical Options ⇒
//     identical Result, so a hit is byte-identical to re-running);
//  2. an optional disk-backed content-addressed store (internal/store)
//     that survives restarts and is shared by replicas on one volume;
//  3. singleflight coalescing (internal/memo's Group), so N concurrent
//     identical requests cost one simulation — with reference-counted
//     cancellation, so the run is aborted only when the last
//     interested client has gone;
//  4. a bounded worker pool with queue-depth backpressure — /v1/run and
//     /v1/figure4 answer 429 + Retry-After on a full queue instead of
//     accepting unbounded work; sweep points, whose sweep was already
//     admitted, wait for room. A panic on a worker fails only its own
//     request (a 500 naming the cache key, counted in
//     fgnvm_panics_total); the process keeps serving.
//
// Cancellation is honest end to end: a disconnected client or an
// expired per-request timeout propagates through context into the
// simulation loop (fgnvm.RunContext), freeing the worker promptly.
//
// Scale-out (see sweep_engine.go in this package and internal/shard):
// configured peers turn /v1/sweep and /v1/sweep/stream into a sharded
// fan-out whose merged output is byte-identical to the single-process
// sweep. Peers speak one protocol, their own /v1/sweep/stream: its
// per-point events let the coordinator re-run locally only the points a
// failed peer did not deliver. /v1/sweep/stream reports per-point
// progress as NDJSON events, resumable because every completed point
// lands in the store.
//
// Endpoints: POST /v1/run, /v1/figure4, /v1/sweep, /v1/sweep/stream;
// GET /healthz, /metrics (plain-text counters; see metrics.go).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	fgnvm "repro"
	"repro/internal/memo"
	"repro/internal/shard"
	"repro/internal/store"
)

// statusClientClosedRequest is nginx's non-standard code for "client
// went away before the response": the honest status for a cancelled
// run (nobody will read the body, but logs and tests see it).
const statusClientClosedRequest = 499

// Config sizes the service. Zero fields take the documented defaults.
type Config struct {
	// Workers is the number of simulations executing concurrently
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth is how many admitted requests may wait for a worker
	// before new ones are rejected with 429 (default 64; negative for
	// no queue at all — reject unless a worker is idle).
	QueueDepth int
	// CacheEntries is the result-cache capacity (default 256; < 0
	// disables caching).
	CacheEntries int
	// DefaultTimeout bounds each request's wall-clock time (0 =
	// unbounded). A request's timeout_ms may shorten it, never lengthen
	// it; with no default, timeout_ms alone bounds the request.
	DefaultTimeout time.Duration
	// MaxInstructions rejects requests asking for longer simulations
	// (0 = unlimited) — an admission guard so one request cannot pin a
	// worker for hours.
	MaxInstructions uint64

	// StoreDir, when set, backs the memory cache with a disk-based
	// content-addressed result store at that path: results survive
	// restarts, and replicas sharing the volume share the results.
	StoreDir string
	// StoreMaxBytes bounds the store's payload bytes with LRU eviction
	// (0 = unbounded). Ignored without StoreDir.
	StoreMaxBytes int64
	// Peers lists sibling replicas (base URLs) to fan sweep points out
	// to. The local replica always takes its own shard; a failed peer's
	// shard falls back to local execution.
	Peers []string
}

func (c *Config) applyDefaults() {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
}

// Server is the HTTP handler. Create with New; Close drains in-flight
// runs.
type Server struct {
	cfg     Config
	pool    *Pool
	cache   *memo.LRU[string, []byte]
	store   *store.Store // nil without Config.StoreDir
	peers   []shard.Peer
	flights memo.Group[string, []byte]
	metrics metrics
	mux     *http.ServeMux

	// runFn and figure4Fn are the simulation entry points, replaceable
	// in tests.
	runFn     func(context.Context, fgnvm.Options) (fgnvm.Result, error)
	figure4Fn func(context.Context, fgnvm.ExperimentParams) (fgnvm.Figure4Result, error)
}

// New builds a Server and starts its worker pool. It fails only when
// Config.StoreDir is set and cannot be opened.
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	s := &Server{
		cfg:       cfg,
		pool:      NewPool(cfg.Workers, cfg.QueueDepth),
		cache:     memo.NewLRU[string, []byte](cfg.CacheEntries),
		runFn:     fgnvm.RunContext,
		figure4Fn: fgnvm.Figure4Context,
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, cfg.StoreMaxBytes)
		if err != nil {
			s.pool.Close()
			return nil, err
		}
		s.store = st
	}
	for _, p := range cfg.Peers {
		s.peers = append(s.peers, shard.Peer{BaseURL: p})
	}
	s.flights.OnCoalesce = func() { s.metrics.coalesced.Add(1) }
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/figure4", s.handleFigure4)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("POST /v1/sweep/stream", s.handleSweepStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops the worker pool after draining admitted runs.
func (s *Server) Close() { s.pool.Close() }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.metrics.writeTo(w, s.pool.QueueLen(), s.pool.InFlight())
	if s.store != nil {
		writeStoreMetrics(w, s.store.Stats())
	}
}

// maxBodyBytes bounds request bodies; simulation requests are tiny.
const maxBodyBytes = 1 << 20

// decodeJSON parses the body strictly (unknown fields are 400s, so a
// typoed knob cannot silently run the wrong simulation).
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	norm, opts, err := req.normalize()
	if !s.admit(w, norm.Instructions, err) {
		return
	}
	s.serveCached(w, r, norm.cacheKey(), req.TimeoutMS, func(ctx context.Context) (any, error) {
		return s.runFn(ctx, opts)
	})
}

func (s *Server) handleFigure4(w http.ResponseWriter, r *http.Request) {
	var req Figure4Request
	if !decodeJSON(w, r, &req) {
		return
	}
	norm, params, err := req.normalize()
	if !s.admit(w, norm.Instructions, err) {
		return
	}
	s.serveCached(w, r, norm.cacheKey(), req.TimeoutMS, func(ctx context.Context) (any, error) {
		return s.figure4Fn(ctx, params)
	})
}

// admit answers 400 and returns false for a request that failed
// normalization or asks for more instructions than the server allows.
func (s *Server) admit(w http.ResponseWriter, instructions uint64, err error) bool {
	if err == nil && s.cfg.MaxInstructions > 0 && instructions > s.cfg.MaxInstructions {
		err = fmt.Errorf("instructions %d exceeds server limit %d", instructions, s.cfg.MaxInstructions)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// handleSweep and handleSweepStream — the per-point, store-backed,
// optionally sharded sweep paths — live in sweep_engine.go.

// serveCached answers /v1/run and /v1/figure4: one cachedCompute call
// under the request's context, with admission that fails fast (a full
// pool is a 429), the response newline-terminated, and the result
// counted in the cache hit/miss counters.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, timeoutMS int64, compute func(context.Context) (any, error)) {
	s.metrics.requests.Add(1)
	ctx, cancel := s.requestContext(r, timeoutMS)
	defer cancel()
	tryPool := func(_ context.Context, task func()) error { return s.pool.TrySubmit(task) }
	b, disposition, err := s.cachedCompute(ctx, key, tryPool, func(ctx context.Context) ([]byte, error) {
		v, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		return append(b, '\n'), nil
	})
	switch disposition {
	case "hit":
		s.metrics.cacheHits.Add(1)
	case "store": // the disk store keeps its own hit/miss counters
	default:
		s.metrics.cacheMisses.Add(1)
	}
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	writeJSON(w, disposition, b)
}

// cachedCompute is the one path from a cache key to its serialized
// result: the memory cache, then the shared disk store (a restart, or a
// sibling replica's earlier run, answers here), then a coalesced flight
// that submits compute to the pool and writes its bytes through to both
// tiers. The disposition is "hit" (memory), "store", "miss" (this call
// ran compute) or "coalesced" (it joined a flight another call
// started); a failed flight reports "miss" or "coalesced" with its
// error. compute runs on a pool worker under a context that ends when
// every caller interested in key has gone; a panic in it becomes an
// error (a 500 naming key) instead of killing the process.
func (s *Server) cachedCompute(ctx context.Context, key string, submit func(context.Context, func()) error, compute func(context.Context) ([]byte, error)) (b []byte, disposition string, err error) {
	if b, ok := s.cache.Get(key); ok {
		return b, "hit", nil
	}
	if b, ok := s.storeGet(key); ok {
		s.cache.Add(key, b)
		return b, "store", nil
	}
	b, shared, err := s.flights.Do(ctx, key, func(fctx context.Context) ([]byte, error) {
		type outcome struct {
			b   []byte
			err error
		}
		ch := make(chan outcome, 1)
		task := func() {
			b, err := s.runTask(fctx, key, compute)
			ch <- outcome{b, err}
		}
		if err := submit(fctx, task); err != nil {
			return nil, err
		}
		o := <-ch
		return o.b, o.err
	})
	disposition = "miss"
	if shared {
		disposition = "coalesced"
	}
	if err != nil {
		return nil, disposition, err
	}
	s.cache.Add(key, b)
	s.storePut(key, b)
	return b, disposition, nil
}

// runTask is the body of one pool task: it skips a flight abandoned
// while the task sat in the queue, times the computation for /metrics,
// and turns a panic into an error naming key, counted and logged.
func (s *Server) runTask(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) (b []byte, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	defer func() {
		if v := recover(); v != nil {
			s.metrics.panics.Add(1)
			log.Printf("server: panic computing %s: %v\n%s", key, v, debug.Stack())
			b, err = nil, fmt.Errorf("internal error: computing %s panicked: %v", key, v)
		}
	}()
	s.metrics.runsStarted.Add(1)
	start := time.Now() //lint:allow wallclock measuring real run latency for /metrics
	b, err = compute(ctx)
	if err == nil {
		s.metrics.observeLatency(uint64(time.Since(start).Milliseconds()))
	}
	return b, err
}

// maxTimeoutMS is the longest timeout_ms a time.Duration can hold. A
// longer one is ignored: converted, it would overflow to a negative
// duration, which requestContext would take for "no deadline".
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// requestContext derives the compute context: the client's lifetime
// bounded by the default timeout, or by the request's timeout_ms where
// that is shorter or no default is set. One request body therefore
// cannot hold a worker past DefaultTimeout.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 && timeoutMS <= maxTimeoutMS {
		if t := time.Duration(timeoutMS) * time.Millisecond; timeout == 0 || t < timeout {
			timeout = t
		}
	}
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return context.WithCancel(ctx)
}

// writeComputeError maps a failed computation to its HTTP status and
// counters — one mapping for the cached, sharded, and streaming paths.
func (s *Server) writeComputeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrSaturated):
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server saturated: all workers busy and queue full", http.StatusTooManyRequests)
	case errors.Is(err, context.DeadlineExceeded):
		s.metrics.canceled.Add(1)
		http.Error(w, "simulation deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		s.metrics.canceled.Add(1)
		w.WriteHeader(statusClientClosedRequest)
	default:
		s.metrics.errored.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// storeGet consults the disk store; a nil store always misses. The
// store keeps its own hit/miss/eviction counters (see /metrics).
func (s *Server) storeGet(key string) ([]byte, bool) {
	if s.store == nil {
		return nil, false
	}
	return s.store.Get(key)
}

// storePut writes through to the disk store. Failures are counted, not
// fatal: the response was already computed, and the store's absence
// only costs future recomputes.
func (s *Server) storePut(key string, b []byte) {
	if s.store == nil {
		return
	}
	if err := s.store.Put(key, b); err != nil {
		s.metrics.storeErrors.Add(1)
	}
}

// writeJSON sends pre-serialized JSON with the cache disposition in a
// header. Cold and cached responses write the same byte slice, so a
// hit is byte-identical to the run that populated it.
func writeJSON(w http.ResponseWriter, disposition string, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", disposition)
	w.Write(b)
}
