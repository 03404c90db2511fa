package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// setupPasses one-instruction passes give setup_s as their median.
const setupPasses = 5

// tally counts the ops a pass attempted and the ones that failed: an
// error, or an output that differs from its reference. Each op is
// counted once. invalid marks a failed check that belongs to no counted
// op, such as a set-up or reference run.
type tally struct {
	attempted, failed int
	invalid           bool
	notes             []string
}

func (t *tally) check(label string, err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	t.note(label, err)
	return false
}

func (t *tally) fail(label string, err error) {
	t.invalid = true
	t.note(label, err)
}

func (t *tally) note(label string, err error) {
	if len(t.notes) < 10 {
		t.notes = append(t.notes, fmt.Sprintf("%s: %v", label, err))
	}
}

// measureEndToEnd times w's ops at seed with tracing off: set-up time
// first, then one reference pass, then w.passes timed passes. Only the
// timed ops are counted as attempted. Times are process CPU time,
// reported at the reference host's speed, which is returned (see
// hostspeed.go).
func measureEndToEnd(ctx context.Context, w workload, seed uint64) (map[string]metric, []outcome, float64, tally) {
	var t tally
	ops := w.ops(seed)
	probe, err := newHostProbe()
	if err != nil {
		t.fail("host probe", err)
		return nil, nil, 0, t
	}
	defer probe.close()

	setup := make([]float64, setupPasses)
	for i := range setup {
		probe.sample()
		start := cpuTime()
		for _, o := range ops {
			if _, err := o.withInstructions(1).execute(ctx, false, nil); err != nil {
				t.fail(o.label+" (set-up)", err)
			}
		}
		setup[i] = (cpuTime() - start).Seconds()
	}

	refs := make([]outcome, len(ops))
	for i, o := range ops {
		out, err := o.execute(ctx, true, nil)
		if err != nil {
			t.fail(o.label+" (reference)", err)
		}
		refs[i] = out
	}

	times := make([]float64, 0, w.passes*len(ops))
	var instructions uint64
	var cpu time.Duration
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for pass := 0; pass < w.passes && ctx.Err() == nil; pass++ {
		for i, o := range ops {
			start := cpuTime()
			out, err := o.execute(ctx, false, nil)
			d := cpuTime() - start
			cpu += d
			times = append(times, ms(d))
			probe.after(d)
			if err == nil && out.digest != refs[i].digest {
				err = fmt.Errorf("output differs from the reference pass")
			}
			if t.check(o.label, err) {
				instructions += refs[i].instructions
			}
		}
	}
	runtime.ReadMemStats(&m1)

	n := len(times)
	p50, err := percentile(times, 50)
	if err != nil {
		t.fail("op_ms_p50", err)
	}
	p90, err := percentile(times, 90)
	if err != nil {
		t.fail("op_ms_p90", err)
	}
	speed := probe.speed()
	v := map[string]metric{
		"sim_minstr_per_s": {Value: float64(instructions) / cpu.Seconds() / 1e6 / speed, Samples: n},
		"op_ms_p50":        {Value: p50 * speed, Samples: n},
		"op_ms_p90":        {Value: p90 * speed, Samples: n},
		"setup_s":          {Value: median(setup) * speed, Samples: setupPasses},
		"allocs_per_run":   {Value: float64(m1.Mallocs-m0.Mallocs) / float64(n), Samples: n},
		"alloc_mb_per_run": {Value: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(n), Samples: n},
	}
	for _, d := range endToEnd {
		m := v[d.Name]
		m.Unit = d.Unit
		v[d.Name] = m
	}
	return v, refs, speed, t
}
