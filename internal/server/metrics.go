// Service observability: plain-text counters and gauges served at
// GET /metrics, plus a log-bucketed wall-clock latency histogram for
// completed simulations (reusing internal/stats, the same machinery
// that reports the simulated read-latency percentiles).

package server

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
	"repro/internal/store"
)

// metrics holds the service counters. Counters are atomics so the hot
// path never contends; the histogram has its own mutex.
type metrics struct {
	requests    atomic.Uint64 // requests accepted by a /v1 endpoint
	runsStarted atomic.Uint64 // simulations actually begun on a worker
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	coalesced   atomic.Uint64 // requests that joined an in-flight run
	rejected    atomic.Uint64 // 429s from a saturated pool
	canceled    atomic.Uint64 // client cancellations and timeouts
	errored     atomic.Uint64 // internal failures
	panics      atomic.Uint64 // computations that panicked (also failures)

	storeErrors        atomic.Uint64 // disk-store write failures (non-fatal)
	shardFanouts       atomic.Uint64 // sweeps that fanned out to peers
	shardRemotePoints  atomic.Uint64 // sweep points computed by peers
	shardFallbacks     atomic.Uint64 // peer shards re-run locally after a peer error
	streams            atomic.Uint64 // /v1/sweep/stream requests
	streamCachedPoints atomic.Uint64 // streamed points served without simulating

	mu        sync.Mutex
	latencyMS stats.Histogram // wall-clock per completed run, milliseconds
	fanoutMS  stats.Histogram // per-peer shard round trip, milliseconds
	mergeUS   stats.Histogram // sweep assemble+marshal, microseconds
}

// observeLatency records one completed run's wall-clock time.
func (m *metrics) observeLatency(ms uint64) {
	m.mu.Lock()
	m.latencyMS.Observe(ms)
	m.mu.Unlock()
}

// observeFanout records one peer shard round trip.
func (m *metrics) observeFanout(ms uint64) {
	m.mu.Lock()
	m.fanoutMS.Observe(ms)
	m.mu.Unlock()
}

// observeMerge records one sweep's assemble+marshal time.
func (m *metrics) observeMerge(us uint64) {
	m.mu.Lock()
	m.mergeUS.Observe(us)
	m.mu.Unlock()
}

// writeTo renders the metrics in a flat "name value" text format.
func (m *metrics) writeTo(w io.Writer, queueDepth int, inflight int64) {
	fmt.Fprintf(w, "fgnvm_requests_total %d\n", m.requests.Load())
	fmt.Fprintf(w, "fgnvm_runs_started_total %d\n", m.runsStarted.Load())
	fmt.Fprintf(w, "fgnvm_cache_hits_total %d\n", m.cacheHits.Load())
	fmt.Fprintf(w, "fgnvm_cache_misses_total %d\n", m.cacheMisses.Load())
	fmt.Fprintf(w, "fgnvm_coalesced_total %d\n", m.coalesced.Load())
	fmt.Fprintf(w, "fgnvm_rejected_total %d\n", m.rejected.Load())
	fmt.Fprintf(w, "fgnvm_canceled_total %d\n", m.canceled.Load())
	fmt.Fprintf(w, "fgnvm_errors_total %d\n", m.errored.Load())
	fmt.Fprintf(w, "fgnvm_panics_total %d\n", m.panics.Load())
	fmt.Fprintf(w, "fgnvm_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "fgnvm_inflight_runs %d\n", inflight)
	fmt.Fprintf(w, "fgnvm_store_errors_total %d\n", m.storeErrors.Load())
	fmt.Fprintf(w, "fgnvm_shard_fanouts_total %d\n", m.shardFanouts.Load())
	fmt.Fprintf(w, "fgnvm_shard_remote_points_total %d\n", m.shardRemotePoints.Load())
	fmt.Fprintf(w, "fgnvm_shard_fallbacks_total %d\n", m.shardFallbacks.Load())
	fmt.Fprintf(w, "fgnvm_streams_total %d\n", m.streams.Load())
	fmt.Fprintf(w, "fgnvm_stream_cached_points_total %d\n", m.streamCachedPoints.Load())
	m.mu.Lock()
	defer m.mu.Unlock()
	fmt.Fprintf(w, "fgnvm_run_latency_ms_count %d\n", m.latencyMS.Count())
	fmt.Fprintf(w, "fgnvm_run_latency_ms_mean %.1f\n", m.latencyMS.Mean())
	fmt.Fprintf(w, "fgnvm_run_latency_ms_p50 %d\n", m.latencyMS.Percentile(50))
	fmt.Fprintf(w, "fgnvm_run_latency_ms_p95 %d\n", m.latencyMS.Percentile(95))
	fmt.Fprintf(w, "fgnvm_shard_fanout_ms_count %d\n", m.fanoutMS.Count())
	fmt.Fprintf(w, "fgnvm_shard_fanout_ms_mean %.1f\n", m.fanoutMS.Mean())
	fmt.Fprintf(w, "fgnvm_shard_fanout_ms_p95 %d\n", m.fanoutMS.Percentile(95))
	fmt.Fprintf(w, "fgnvm_sweep_merge_us_count %d\n", m.mergeUS.Count())
	fmt.Fprintf(w, "fgnvm_sweep_merge_us_mean %.1f\n", m.mergeUS.Mean())
	fmt.Fprintf(w, "fgnvm_sweep_merge_us_p95 %d\n", m.mergeUS.Percentile(95))
}

// writeStoreMetrics renders the disk store's own counters, appended to
// /metrics when a store is configured.
func writeStoreMetrics(w io.Writer, st store.Stats) {
	fmt.Fprintf(w, "fgnvm_store_hits_total %d\n", st.Hits)
	fmt.Fprintf(w, "fgnvm_store_misses_total %d\n", st.Misses)
	fmt.Fprintf(w, "fgnvm_store_evictions_total %d\n", st.Evictions)
	fmt.Fprintf(w, "fgnvm_store_bytes %d\n", st.Bytes)
	fmt.Fprintf(w, "fgnvm_store_entries %d\n", st.Entries)
}
