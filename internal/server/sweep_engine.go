// The sweep engine: /v1/sweep and /v1/sweep/stream decomposed into
// per-point units of work. Each point (one baseline run + one
// design-under-test run at one axis value) is content-addressed by a
// canonical point key and computed through cachedCompute, the same
// memory cache → shared disk store → coalesced flight → pool path that
// /v1/run takes, so it is independently cacheable and coalescible. It
// is also independently placeable: a local pool worker, or a peer
// replica (internal/shard) reached through that peer's
// /v1/sweep/stream. The single-process fgnvm.Sweep, the sharded
// fan-out, and the streaming path all execute the same fgnvm.SweepPlan
// and assemble points with the same fgnvm.NewSweepPoint, so their
// outputs are byte-identical by construction — the property the
// three-replica end-to-end test pins.
//
// Progress streaming is NDJSON: one "start" event, one "point" event
// per completed point (completion order), and a terminal "done" event
// whose result field carries the exact bytes /v1/sweep would return
// (or an "error" event). Because completed points persist in the
// store, a client that disconnects mid-sweep and reconnects replays
// the finished points instantly (cached=true) and only the unfinished
// remainder simulates. The stream is also the one peer protocol: a
// coordinator relays each peer's point events, blocking sweep or not,
// and runs locally only the points a failed peer did not deliver.

package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	fgnvm "repro"
	"repro/internal/shard"
)

// isShardRequest reports whether r is a fan-out sub-request from a
// peer replica: execute locally, never re-shard (two mutually-peered
// replicas must not bounce a sweep between each other).
func isShardRequest(r *http.Request) bool {
	return r.Header.Get(shard.Header) != ""
}

// sweepPointRecord is the stored unit of sweep progress: the row the
// final SweepResult needs plus the per-run summary the progress stream
// reports. Serialized JSON of this struct is what lives under a point
// key in the cache and the disk store.
type sweepPointRecord struct {
	Value       int              `json:"value"`
	Point       fgnvm.SweepPoint `json:"point"`
	Cycles      uint64           `json:"cycles"`       // design-run controller cycles
	StallCycles uint64           `json:"stall_cycles"` // design-run stalled cycles
	Reads       uint64           `json:"reads"`
	Writes      uint64           `json:"writes"`
}

// pointEvent is one NDJSON progress event. The same struct decodes
// peer stream events during fan-out relay, so it also carries the
// "error" field of the terminal error event.
type pointEvent struct {
	Event       string           `json:"event"`
	Index       int              `json:"index"`
	Value       int              `json:"value"`
	Cached      bool             `json:"cached"`           // served from cache/store: no simulation ran
	Remote      bool             `json:"remote,omitempty"` // computed by a peer replica
	Done        int              `json:"done"`
	Total       int              `json:"total"`
	Point       fgnvm.SweepPoint `json:"point"`
	Cycles      uint64           `json:"cycles"`
	StallCycles uint64           `json:"stall_cycles"`
	Reads       uint64           `json:"reads"`
	Writes      uint64           `json:"writes"`
	Error       string           `json:"error,omitempty"`
}

// sweepPoint computes (or recalls) one point through cachedCompute.
// Admission waits for pool room instead of failing fast: the sweep
// holding this point was already admitted. cached reports that no
// simulation ran.
func (s *Server) sweepPoint(ctx context.Context, key string, job fgnvm.SweepJob) (rec sweepPointRecord, cached bool, err error) {
	b, disposition, err := s.cachedCompute(ctx, key, s.pool.SubmitWait, func(ctx context.Context) ([]byte, error) {
		base, err := s.runFn(ctx, job.Baseline)
		if err != nil {
			return nil, err
		}
		r, err := s.runFn(ctx, job.Options)
		if err != nil {
			return nil, err
		}
		return json.Marshal(sweepPointRecord{
			Value:       job.Value,
			Point:       fgnvm.NewSweepPoint(job.Value, r, base),
			Cycles:      uint64(r.Cycles),
			StallCycles: r.StallCycles,
			Reads:       r.Reads,
			Writes:      r.Writes,
		})
	})
	if err != nil {
		return rec, false, err
	}
	err = json.Unmarshal(b, &rec)
	return rec, disposition == "hit" || disposition == "store", err
}

// runSweepPoints executes every job of plan — local shard on the pool,
// remote shards relayed from peers — and returns the points in plan
// order. emit, when non-nil, receives one event per completed point in
// completion order, peer points included. allCached reports that every
// point, local or relayed, came from a cache or store and no
// simulation ran anywhere.
func (s *Server) runSweepPoints(ctx context.Context, norm SweepRequest, plan fgnvm.SweepPlan, fanout bool, emit func(pointEvent)) (points []fgnvm.SweepPoint, allCached bool, err error) {
	n := len(plan.Jobs)
	points = make([]fgnvm.SweepPoint, n)
	replicas := 1
	if fanout && len(s.peers) > 0 && n > 1 {
		replicas = 1 + len(s.peers)
	}
	a := shard.Plan(n, replicas)
	if a.Replicas > 1 {
		s.metrics.shardFanouts.Add(1)
	}

	var (
		mu        sync.Mutex
		done      int
		errs      []error
		cachedAll = true
	)
	record := func(i int, ev pointEvent) {
		mu.Lock()
		points[i] = ev.Point
		done++
		ev.Done, ev.Total = done, n
		if !ev.Cached {
			cachedAll = false
		}
		// Emit under mu so done counts appear in order on the stream.
		if emit != nil {
			emit(ev)
		}
		mu.Unlock()
	}
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		cachedAll = false
		mu.Unlock()
	}

	runLocal := func(indices []int) {
		var wg sync.WaitGroup
		for _, i := range indices {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				job := plan.Jobs[i]
				rec, cached, err := s.sweepPoint(ctx, norm.pointKey(job.Value), job)
				if err != nil {
					fail(fmt.Errorf("sweep %s=%d: %w", plan.Axis, job.Value, err))
					return
				}
				record(i, pointEvent{
					Event: "point", Index: i, Value: job.Value, Cached: cached,
					Point: rec.Point, Cycles: rec.Cycles, StallCycles: rec.StallCycles,
					Reads: rec.Reads, Writes: rec.Writes,
				})
			}(i)
		}
		wg.Wait()
	}

	var wg sync.WaitGroup
	for r := 1; r < a.Replicas; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rest, err := s.relayShard(ctx, s.peers[r-1], norm, plan, a.Shard(r), record)
			if err == nil {
				return
			}
			if ctx.Err() != nil {
				fail(ctx.Err())
				return
			}
			// A dead or erroring peer must not fail the sweep: the points
			// it did not deliver fall back to local execution (store
			// hits included).
			s.metrics.shardFallbacks.Add(1)
			runLocal(rest)
		}(r)
	}
	runLocal(a.Shard(0))
	wg.Wait()

	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return nil, false, errors.Join(errs...)
	}
	return points, cachedAll, nil
}

// relayShard dispatches one shard to a peer's /v1/sweep/stream and
// records each point event as it arrives, re-indexed into plan order.
// On error it also returns the plan indices it did not record, for the
// caller to run locally: a peer that dies mid-stream has already
// delivered some.
func (s *Server) relayShard(ctx context.Context, peer shard.Peer, norm SweepRequest, plan fgnvm.SweepPlan, indices []int, record func(int, pointEvent)) (rest []int, err error) {
	delivered := make([]bool, len(indices))
	defer func() {
		if err != nil {
			for k, i := range indices {
				if !delivered[k] {
					rest = append(rest, i)
				}
			}
		}
	}()
	sub := norm
	sub.Values = make([]int, len(indices))
	for k, i := range indices {
		sub.Values[k] = plan.Jobs[i].Value
	}
	sub.Parallel = 0
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, err
	}
	start := time.Now() //lint:allow wallclock fan-out round-trip latency for /metrics
	defer func() {
		s.metrics.observeFanout(uint64(time.Since(start).Milliseconds()))
	}()
	rc, err := peer.SweepStream(ctx, body)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	sc := bufio.NewScanner(rc)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	got := 0
	for sc.Scan() {
		var ev pointEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("peer stream: %w", err)
		}
		switch ev.Event {
		case "point":
			if ev.Index < 0 || ev.Index >= len(indices) {
				return nil, fmt.Errorf("peer stream: point index %d outside %d-point shard", ev.Index, len(indices))
			}
			if delivered[ev.Index] {
				return nil, fmt.Errorf("peer stream: point index %d repeated", ev.Index)
			}
			delivered[ev.Index] = true
			i := indices[ev.Index]
			ev.Index, ev.Remote = i, true
			record(i, ev)
			got++
			s.metrics.shardRemotePoints.Add(1)
		case "error":
			return nil, fmt.Errorf("peer: %s", ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("peer stream: %w", err)
	}
	if got != len(indices) {
		return nil, fmt.Errorf("peer stream ended after %d of %d points", got, len(indices))
	}
	return nil, nil
}

// decodeSweep parses, validates, and plans a sweep request; ok false
// means the 400 was already written.
func (s *Server) decodeSweep(w http.ResponseWriter, r *http.Request) (SweepRequest, fgnvm.SweepPlan, bool) {
	var req SweepRequest
	if !decodeJSON(w, r, &req) {
		return req, fgnvm.SweepPlan{}, false
	}
	norm, plan, err := req.normalize()
	return norm, plan, s.admit(w, norm.Instructions, err)
}

// sweepBytes assembles the points into the serialized SweepResult,
// without the trailing newline /v1/sweep adds.
func sweepBytes(plan fgnvm.SweepPlan, points []fgnvm.SweepPoint) ([]byte, error) {
	res, err := plan.Assemble(points)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	norm, plan, ok := s.decodeSweep(w, r)
	if !ok {
		return
	}
	s.metrics.requests.Add(1)
	ctx, cancel := s.requestContext(r, norm.TimeoutMS)
	defer cancel()

	points, allCached, err := s.runSweepPoints(ctx, norm, plan, !isShardRequest(r), nil)
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	mergeStart := time.Now() //lint:allow wallclock merge latency for /metrics
	b, err := sweepBytes(plan, points)
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	b = append(b, '\n')
	s.metrics.observeMerge(uint64(time.Since(mergeStart).Microseconds()))
	disposition := "miss"
	if allCached {
		disposition = "hit"
	}
	writeJSON(w, disposition, b)
}

func (s *Server) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	norm, plan, ok := s.decodeSweep(w, r)
	if !ok {
		return
	}
	s.metrics.requests.Add(1)
	s.metrics.streams.Add(1)
	ctx, cancel := s.requestContext(r, norm.TimeoutMS)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer progress
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	var wmu sync.Mutex
	writeEvent := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			// Unreachable for well-formed events (the point payload
			// already round-tripped through the store); count, don't hang.
			s.metrics.errored.Add(1)
			return
		}
		wmu.Lock()
		w.Write(append(b, '\n'))
		if fl != nil {
			fl.Flush()
		}
		wmu.Unlock()
	}

	writeEvent(struct {
		Event     string `json:"event"`
		Axis      string `json:"axis"`
		Design    string `json:"design"`
		Benchmark string `json:"benchmark"`
		Total     int    `json:"total"`
	}{"start", plan.Axis, plan.Design, plan.Benchmark, len(plan.Jobs)})

	points, _, err := s.runSweepPoints(ctx, norm, plan, !isShardRequest(r), func(ev pointEvent) {
		if ev.Cached {
			s.metrics.streamCachedPoints.Add(1)
		}
		writeEvent(ev)
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.metrics.canceled.Add(1)
		} else {
			s.metrics.errored.Add(1)
		}
	}
	var b []byte
	if err == nil {
		b, err = sweepBytes(plan, points)
	}
	if err != nil {
		writeEvent(struct {
			Event string `json:"event"`
			Error string `json:"error"`
		}{"error", err.Error()})
		return
	}
	// The terminal event carries the exact /v1/sweep response bytes:
	// a streaming client ends up with the same result a blocking one
	// gets, byte for byte.
	writeEvent(struct {
		Event  string          `json:"event"`
		Result json.RawMessage `json:"result"`
	}{"done", b})
}
