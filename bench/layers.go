package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// layerPass accumulates the traced pass over one workload. Each
// simulation an op runs is executed, interleaved, on the default path
// (fgnvm.RunContext), on the untraced replica and on the traced
// replica; the replica's counters must match the default path's.
type layerPass struct {
	tally
	led   *ledger
	stats replicaStats

	replicated  int           // runs the replica reproduced
	cycles      uint64        // their simulated cycles
	defaultWall time.Duration // their wall on the default path
	replicaWall time.Duration // untraced replica
	tracedWall  time.Duration // traced replica

	pointMs     []float64     // serial host ms per sweep point (a run, outside sweeps)
	serialWall  time.Duration // sum of the serial point times
	fanoutSlots time.Duration // fan-out wall x goroutines

	telRuns     int
	telEvents   int
	telBytes    int
	telOn       time.Duration
	telOff      time.Duration
	probeExport time.Duration // exports timed outside the traced replica
}

// measureLayers runs the traced pass: one pass of w's ops at seed, with
// the spans of the first op written to spansPath. Each op is counted
// once, failed when any of its checks failed.
func measureLayers(ctx context.Context, w workload, seed uint64, spansPath string) (map[string]metric, []outcome, tally) {
	ops := w.ops(seed)
	p := &layerPass{led: newLedger()}
	outs := make([]outcome, len(ops))
	errs := make([]error, len(ops))
	for i, o := range ops {
		outs[i], errs[i] = p.traceOp(ctx, o, i)
	}
	if ops[0].sweep == nil {
		p.fanOut(ctx, ops, outs, errs)
	}
	for i, o := range ops {
		p.check(o.label, errs[i])
	}
	if err := p.led.writeSpans(spansPath); err != nil {
		p.fail("spans", err)
	}
	return p.metrics(), outs, p.tally
}

// traceOp runs op i serially, replicates each of its simulations, pairs
// telemetry where the pass measures it, and fans a sweep out through
// SweepContext. The error joins every check that failed.
func (p *layerPass) traceOp(ctx context.Context, o op, i int) (outcome, error) {
	var recs []runRecord
	out, err := o.execute(ctx, true, func(r runRecord) { recs = append(recs, r) })
	if err != nil {
		return out, err
	}
	var errs []error
	for j, rec := range recs {
		errs = append(errs, p.replicateRun(ctx, rec, i, i == 0))
		// The telemetry layer is paired on every run of a workload that
		// uses it, and on the first run of any other.
		if rec.opts.Telemetry != nil || (i == 0 && j == 0) {
			errs = append(errs, p.telemetryPair(ctx, rec))
		}
	}
	if o.sweep == nil {
		p.pointMs = append(p.pointMs, ms(recs[0].wall))
		p.serialWall += recs[0].wall
		return out, errors.Join(errs...)
	}
	for j := 0; j+1 < len(recs); j += 2 {
		p.pointMs = append(p.pointMs, ms(recs[j].wall+recs[j+1].wall))
		p.serialWall += recs[j].wall + recs[j+1].wall
	}
	start := time.Now()
	fo, err := o.execute(ctx, false, nil)
	wall := time.Since(start)
	if err == nil && fo.digest != out.digest {
		err = fmt.Errorf("SweepContext output differs from the serial sweep")
	}
	// SweepContext runs min(Parallel, points) goroutines.
	par := min(o.sweep.Parallel, len(recs)/2)
	p.fanoutSlots += wall * time.Duration(par)
	return out, errors.Join(append(errs, err)...)
}

// replicateRun runs one recorded simulation on the untraced and the
// traced replica and checks both against the default path.
func (p *layerPass) replicateRun(ctx context.Context, rec runRecord, op int, record bool) error {
	run := func(led *ledger, stats *replicaStats) (time.Duration, error) {
		opts := rec.opts
		h := sha256.New()
		if opts.Telemetry != nil {
			opts = withTelemetry(opts, h)
		}
		start := time.Now()
		c, err := replicate(ctx, opts, led, stats)
		wall := time.Since(start)
		if err != nil {
			return wall, err
		}
		if want := countersOf(rec.res); c != want {
			return wall, fmt.Errorf("replica counters %+v, fgnvm.Run %+v", c, want)
		}
		if opts.Telemetry != nil && !bytes.Equal(h.Sum(nil), rec.traceDigest[:]) {
			return wall, fmt.Errorf("replica Perfetto trace differs from fgnvm.Run's")
		}
		return wall, nil
	}
	untraced, err := run(nil, nil)
	if errors.Is(err, errNotReplicable) {
		return nil
	}
	if err != nil {
		return err
	}
	p.led.startOp(op, record)
	traced, err := run(p.led, &p.stats)
	p.led.endOp()
	if err != nil {
		return err
	}
	p.replicated++
	p.cycles += uint64(rec.res.Cycles)
	p.defaultWall += rec.wall
	p.replicaWall += untraced
	p.tracedWall += traced
	return nil
}

// telemetryPair runs rec's configuration once more on the default path
// with telemetry toggled, and pairs the two walls. A run with telemetry
// had its export timed by the traced replica; one without runs on a
// replica with telemetry attached to time it.
func (p *layerPass) telemetryPair(ctx context.Context, rec runRecord) error {
	p.telRuns++
	if rec.opts.Telemetry != nil {
		start := time.Now()
		_, err := runChecked(ctx, withTelemetry(rec.opts, nil))
		p.telOff += time.Since(start)
		p.telOn += rec.wall
		p.telEvents += rec.res.TraceEvents
		p.telBytes += rec.traceBytes
		return err
	}
	cw := &countingWriter{w: io.Discard}
	on := withTelemetry(rec.opts, cw)
	start := time.Now()
	res, err := runChecked(ctx, on)
	p.telOn += time.Since(start)
	p.telOff += rec.wall
	if err != nil {
		return err
	}
	p.telEvents += res.TraceEvents
	p.telBytes += cw.n
	led := newLedger()
	_, err = replicate(ctx, withTelemetry(rec.opts, io.Discard), led, nil)
	p.probeExport += led.total[layerExport]
	if errors.Is(err, errNotReplicable) {
		return nil
	}
	return err
}

// fanOut runs ops once across one goroutine per CPU, the way a sweep
// fans out its points, checks every output against outs and joins each
// op's failure into opErrs.
func (p *layerPass) fanOut(ctx context.Context, ops []op, outs []outcome, opErrs []error) {
	workers := runtime.NumCPU()
	errs := make([]error, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(ops); i = int(next.Add(1)) - 1 {
				out, err := ops[i].execute(ctx, false, nil)
				if err == nil && out.digest != outs[i].digest {
					err = fmt.Errorf("fanned-out output differs from the serial run")
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	p.fanoutSlots += time.Since(start) * time.Duration(workers)
	for i, err := range errs {
		opErrs[i] = errors.Join(opErrs[i], err)
	}
}

func (p *layerPass) metrics() map[string]metric {
	n := float64(max(p.replicated, 1))
	led, s := p.led, p.stats
	opWall := float64(max(led.total[layerOp], 1))
	share := func(k layer) float64 { return float64(led.self[k]) / opWall }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	tel := float64(max(p.telRuns, 1))
	v := map[string]float64{
		"sim.events_per_run":               float64(s.events) / n,
		"sim.share":                        share(layerSim),
		"cpu.cycle_calls_per_run":          float64(s.cycleCalls) / n,
		"cpu.self_share":                   share(layerCPU),
		"cpu.ns_per_cycle_call":            ratio(float64(led.self[layerCPU]), float64(s.cycleCalls)),
		"cpu.llc_miss_rate":                ratio(float64(s.llcMisses), float64(s.llcHits+s.llcMisses)),
		"trace.next_calls_per_run":         float64(s.nexts) / n,
		"trace.share":                      share(layerTrace),
		"trace.ns_per_next":                ratio(float64(led.total[layerTrace]), float64(s.nexts)),
		"controller.cycle_calls_per_run":   float64(s.ctrlCycles) / n,
		"controller.share":                 share(layerController),
		"controller.ns_per_cycle_call":     ratio(float64(led.total[layerController]), float64(s.ctrlCycles)),
		"controller.issue_frac":            ratio(float64(s.ctrlIssued), float64(s.ctrlCycles)),
		"controller.enqueue_calls_per_run": float64(s.enqueues) / n,
		"controller.enqueue_reject_frac":   ratio(float64(s.rejects), float64(s.enqueues)),
		"controller.enqueue_share":         share(layerEnqueue),
		"ff.probes_per_run":                float64(s.probes) / n,
		"ff.jump_frac":                     ratio(float64(s.jumps), float64(s.probes)),
		"ff.skipped_cycle_frac":            ratio(float64(s.skipped), float64(p.cycles)),
		"ff.share":                         share(layerFF),
		"setup.ms_per_run":                 ms(s.setup) / n,
		"setup.share":                      share(layerSetup),
		"setup.warmup_accesses_per_run":    float64(s.warmups) / n,
		"engine.default_over_replica":      ratio(float64(p.defaultWall), float64(p.replicaWall)),
		"telemetry.events_per_run":         float64(p.telEvents) / tel,
		"telemetry.trace_mb_per_run":       float64(p.telBytes) / 1e6 / tel,
		"telemetry.export_ms_per_run":      ms(led.total[layerExport]+p.probeExport) / tel,
		"telemetry.overhead_frac":          ratio(float64(p.telOn), float64(p.telOff)) - 1,
		"sweep.point_ms_p50":               median(p.pointMs),
		"sweep.fanout_efficiency":          ratio(float64(p.serialWall), float64(p.fanoutSlots)),
		"tracing.overhead_frac":            ratio(float64(p.tracedWall), float64(p.replicaWall)) - 1,
	}
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		samples := p.replicated
		switch {
		case d.Name == "sweep.point_ms_p50" || d.Name == "sweep.fanout_efficiency":
			samples = len(p.pointMs)
		case strings.HasPrefix(d.Name, "telemetry."):
			samples = p.telRuns
		}
		out[d.Name] = metric{Value: v[d.Name], Unit: d.Unit, Samples: samples}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
