//go:build !race

package fgnvm

import (
	"io"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/invariant"
)

// memoHitAllocBudget bounds what one memo-hit run on the paper's config
// allocates once the pools hold its LLC lines: the controller, the
// core and the result, well under one LLC copy (512 KiB).
const memoHitAllocBudget = 128 << 10

// TestMemoHitRunAllocBudget: a default run whose warm-up comes from the
// memo allocates under memoHitAllocBudget, because its LLC lines come
// from the previous run's release. The garbage collector is off
// throughout, since a collection may empty the pools, and the test
// holds GOMAXPROCS at 1, since an item Put while the goroutine ran on
// one P is not found by a Get on another (with the invariant build's
// slower Release, the traced test below missed one LLC copy that way in
// about one run in six).
// The race detector makes sync.Pool drop items at random, so this file
// is not built under it.
func TestMemoHitRunAllocBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: "mcf"}
	if _, err := Run(o); err != nil { // fills the memo and the pool
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > memoHitAllocBudget {
		t.Errorf("a memo-hit default run allocated %d KiB, budget %d KiB", n>>10, memoHitAllocBudget>>10)
	}
}

// tracedRunAllocs and tracedRunBytes bound what one memo-hit FgNVM run
// on lbm with all three telemetry consumers allocates once the pools
// hold its LLC lines and trace chunks. They are what this test measured
// for the encoder that built every event from small appends (go1.24.0,
// the highest of three runs), which the encoder with constant heads
// stays under: its per-track and shared-field bytes must not cost a run
// allocations.
const (
	tracedRunAllocs = 306
	tracedRunBytes  = 90_012
)

// TestTracedRunAllocBudget: a traced default run, writing its trace to
// io.Discard, allocates on average no more than tracedRunAllocs objects
// and tracedRunBytes bytes over four memo-hit runs, plus the invariant
// checkers' allowance in that build. The garbage collector is off and
// GOMAXPROCS is 1 for the reasons given above.
func TestTracedRunAllocBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: "lbm",
		Telemetry: &TelemetryOptions{Attribution: true, Occupancy: true, TraceWriter: io.Discard}}
	if _, err := Run(o); err != nil { // fills the memo and the pools
		t.Fatal(err)
	}
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Run(o); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs, bytes := (after.Mallocs-before.Mallocs)/runs, (after.TotalAlloc-before.TotalAlloc)/runs
	t.Logf("%d allocs, %d bytes per run", allocs, bytes)
	extraAllocs, extraBytes := invariantAllowance(t, o)
	if allocs > tracedRunAllocs+extraAllocs || bytes > tracedRunBytes+extraBytes {
		t.Errorf("a memo-hit traced run allocated %d objects and %d bytes, budget %d and %d",
			allocs, bytes, tracedRunAllocs+extraAllocs, tracedRunBytes+extraBytes)
	}
}

// invariantAllocsPerBank and invariantBytesPerBank bound what the
// fgnvm_invariants build's checkers add to a run for each bank: its
// tile tracker and the growths of the tracker's live-span list. The
// build also adds one cached-release slice per channel. Measured on the
// BENCH_pr5.json cases (go1.24.0): 2 to 3.1 allocations per bank on
// average (17 on the 8 baseline banks, 25 on FgNVM's 8, 257 on the 128
// of many-banks) and 208 bytes per bank on the traced FgNVM run.
const (
	invariantAllocsPerBank = 4
	invariantBytesPerBank  = 256
)

// invariantAllowance returns the allocations and bytes the
// fgnvm_invariants build may add to a run of o: none in the default
// build, so its figures are checked as recorded.
func invariantAllowance(t *testing.T, o Options) (allocs, bytes uint64) {
	t.Helper()
	if !invariant.Enabled {
		return 0, 0
	}
	c, err := o.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := c.resolve()
	if err != nil {
		t.Fatal(err)
	}
	banks := uint64(g.Channels * g.Ranks * g.Banks)
	return invariantAllocsPerBank*banks + uint64(g.Channels), invariantBytesPerBank * banks
}

// perfAllocTol is how far a baseline case's allocations per run may
// exceed its recorded allocs_per_op.
const perfAllocTol = 1.10

// TestGoldenPerfAllocs holds every BENCH_pr5.json case (perf_test.go)
// within 10 % of its recorded allocs_per_op, plus the invariant
// checkers' allowance in that build. testing.AllocsPerRun's
// warm-up run fills the warm-up memo and the pools, so the counted run
// is the steady state, and the garbage collector is off for the reason
// given above. Raise a figure by hand, with the change that explains
// it; -update does not touch them.
func TestGoldenPerfAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rep := loadPerfReport(t)
	for _, c := range rep.Cases {
		o := rep.options(t, c)
		var err error
		got := testing.AllocsPerRun(1, func() { _, err = Run(o) })
		if err != nil {
			t.Fatal(err)
		}
		extra, _ := invariantAllowance(t, o)
		if limit := float64(c.AllocsPerOp)*perfAllocTol + float64(extra); got > limit {
			t.Errorf("%s/%s: %.0f allocs per run, over %.0f (recorded %d + 10 %% + %d for the invariant checkers)",
				c.Design, c.Benchmark, got, limit, c.AllocsPerOp, extra)
		}
	}
}
