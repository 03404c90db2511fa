// Command fgnvm-perf is the simulator's performance harness: it times
// the Figure 4 workloads across every design, measures the wall-clock
// speedups of the idle-cycle fast-forward (vs forced cycle-by-cycle
// execution) and of the indexed scheduler (vs the reference
// scan-everything scheduler), and counts allocations per run.
//
//	fgnvm-perf                    # print the report
//	fgnvm-perf -o BENCH_pr5.json  # write the committed baseline
//	fgnvm-perf -check BENCH_pr5.json -check-cycles BENCH_pr4.json
//	fgnvm-perf -against BENCH_pr4.json -cpuprofile cpu.out
//
// -check re-runs the suite and gates against the committed baseline on
// the machine-independent metrics only:
//
//   - simulated cycle counts must match exactly (the simulator is
//     deterministic, so any drift is a model change — regenerate the
//     baseline alongside the change that explains it, like a golden
//     file);
//   - allocations per run must stay within a tolerance of the
//     baseline (the zero-alloc steady state is a tentpole property);
//   - the indexed-scheduling speedup on the best write-heavy workload
//     must stay over its floor, and the fast-forward speedup must not
//     regress below parity (wall-clock *ratios* on the same machine
//     and binary, so load-sensitivity largely divides out).
//
// -check-cycles gates an older baseline on cycle exactness alone: its
// wall-ratio columns predate the current harness, but simulated cycle
// counts must hold across every optimization forever.
//
// -against compares wall clock and allocations against a prior PR's
// report recorded on the same machine — the hot-path acceptance gate,
// run where the report was produced rather than in CI.
//
// Absolute wall times are recorded for the report but never gated —
// they are machine-dependent.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	fgnvm "repro"
)

// Case is one timed design × benchmark point.
type Case struct {
	Design    string `json:"design"`
	Benchmark string `json:"benchmark"`

	Cycles      uint64  `json:"cycles"`        // simulated controller cycles (deterministic)
	WallMS      float64 `json:"wall_ms"`       // best fully-optimized wall time (fast-forward + index)
	RefWallMS   float64 `json:"ref_wall_ms"`   // best cycle-by-cycle wall time (index still on)
	ScanWallMS  float64 `json:"scan_wall_ms"`  // best cycle-by-cycle + scan-scheduler wall time (all off)
	CyclesPerMS float64 `json:"cycles_per_ms"` // simulated cycles per wall millisecond (fully optimized)
	FFSpeedup   float64 `json:"ff_speedup"`    // RefWallMS / WallMS
	IdxSpeedup  float64 `json:"idx_speedup"`   // ScanWallMS / RefWallMS: the index's win on the busy loop
	AllocsPerOp uint64  `json:"allocs_per_op"` // heap allocations for one fully-optimized run
	WriteHeavy  bool    `json:"write_heavy"`   // counts toward the speedup gates
}

// Report is the BENCH_<pr>.json schema.
type Report struct {
	Instructions uint64 `json:"instructions"`
	Seed         uint64 `json:"seed"`
	Reps         int    `json:"reps"`
	GoVersion    string `json:"go_version"`
	Cases        []Case `json:"cases"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fgnvm-perf:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n          = flag.Uint64("n", 200_000, "instructions per run")
		seed       = flag.Uint64("seed", 1, "workload seed")
		reps       = flag.Int("reps", 3, "timing repetitions (best-of)")
		out        = flag.String("o", "", "write the report as JSON to this file")
		check      = flag.String("check", "", "baseline report to gate against")
		checkCyc   = flag.String("check-cycles", "", "older baseline gated on simulated-cycle exactness only")
		against    = flag.String("against", "", "prior-PR baseline for the wall-clock speedup gate (same machine)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the measurement to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the measurement to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fgnvm-perf: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "fgnvm-perf: memprofile:", err)
		}
	}()

	var prior *Report
	if *against != "" {
		b, err := os.ReadFile(*against)
		if err != nil {
			return err
		}
		prior = &Report{}
		if err := json.Unmarshal(b, prior); err != nil {
			return fmt.Errorf("parse %s: %w", *against, err)
		}
	}

	var baseline *Report
	if *check != "" {
		b, err := os.ReadFile(*check)
		if err != nil {
			return err
		}
		baseline = &Report{}
		if err := json.Unmarshal(b, baseline); err != nil {
			return fmt.Errorf("parse %s: %w", *check, err)
		}
		// Gate at the baseline's operating point, whatever -n says.
		*n, *seed, *reps = baseline.Instructions, baseline.Seed, baseline.Reps
	}

	rep, err := measure(*n, *seed, *reps)
	if err != nil {
		return err
	}
	printReport(rep)
	if *out != "" {
		j, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(j, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if baseline != nil {
		if err := gate(rep, baseline); err != nil {
			return err
		}
	}
	if *checkCyc != "" {
		b, err := os.ReadFile(*checkCyc)
		if err != nil {
			return err
		}
		older := &Report{}
		if err := json.Unmarshal(b, older); err != nil {
			return fmt.Errorf("parse %s: %w", *checkCyc, err)
		}
		if err := gateCycles(rep, older); err != nil {
			return err
		}
	}
	if prior != nil {
		return gateAgainstPrior(rep, prior)
	}
	return nil
}

// cases returns the measured matrix: every design on the write-heaviest
// Figure 4 workload (lbm — where the long PCM write drains make
// fast-forwarding pay), plus the FgNVM designs on the low-locality
// read-bound profile (mcf — the worst case for the probe overhead).
func cases() []Case {
	var cs []Case
	for _, d := range fgnvm.Designs() {
		cs = append(cs, Case{Design: d.String(), Benchmark: "lbm", WriteHeavy: true})
	}
	cs = append(cs,
		Case{Design: fgnvm.DesignFgNVM.String(), Benchmark: "mcf"},
		Case{Design: fgnvm.DesignFgNVMMultiIssue.String(), Benchmark: "mcf"},
	)
	return cs
}

func measure(n, seed uint64, reps int) (*Report, error) {
	rep := &Report{Instructions: n, Seed: seed, Reps: reps, GoVersion: runtime.Version()}
	for _, c := range cases() {
		d, err := fgnvm.ParseDesign(c.Design)
		if err != nil {
			return nil, err
		}
		opts := fgnvm.Options{
			Design: d, SAGs: 8, CDs: 2,
			Benchmark: c.Benchmark, Instructions: n, Seed: seed,
		}
		one := func(disableFF, disableIdx bool) (fgnvm.Result, time.Duration, error) {
			o := opts
			o.DisableFastForward = disableFF
			o.DisableSchedIndex = disableIdx
			//lint:allow wallclock the harness exists to time real runs
			start := time.Now()
			r, err := fgnvm.Run(o)
			return r, time.Since(start), err
		}
		// Warmup (and the cycle count, which repetitions cannot change).
		res, _, err := one(false, false)
		if err != nil {
			return nil, err
		}
		c.Cycles = uint64(res.Cycles)

		// Alternate the three variants within each repetition so slow
		// drift (thermal, co-tenant load) biases no side, and take the
		// best of each: the minimum is the least-disturbed run.
		const forever = time.Duration(1<<63 - 1)
		ff, ref, scan := forever, forever, forever
		runtime.GC()
		for i := 0; i < reps; i++ {
			_, elFF, err := one(false, false)
			if err != nil {
				return nil, err
			}
			_, elRef, err := one(true, false)
			if err != nil {
				return nil, err
			}
			// Both optimizations off: the pre-overhaul busy loop. Its
			// ratio to the ref run isolates the indexed scheduler on the
			// cycle-by-cycle path, where every idle cycle is scanned (or
			// memoized) rather than fast-forwarded over.
			_, elScan, err := one(true, true)
			if err != nil {
				return nil, err
			}
			ff, ref, scan = min(ff, elFF), min(ref, elRef), min(scan, elScan)
		}
		c.WallMS = float64(ff.Microseconds()) / 1000
		c.RefWallMS = float64(ref.Microseconds()) / 1000
		c.ScanWallMS = float64(scan.Microseconds()) / 1000
		c.FFSpeedup = float64(ref) / float64(ff)
		c.IdxSpeedup = float64(scan) / float64(ref)
		c.CyclesPerMS = float64(c.Cycles) / c.WallMS

		// Allocations for one fully-optimized run, measured after the
		// warmup so one-time lazy initialization is excluded.
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, _, err := one(false, false); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		c.AllocsPerOp = after.Mallocs - before.Mallocs

		rep.Cases = append(rep.Cases, c)
	}
	return rep, nil
}

func printReport(r *Report) {
	fmt.Printf("fgnvm-perf: %d instructions, seed %d, best of %d (%s)\n",
		r.Instructions, r.Seed, r.Reps, r.GoVersion)
	fmt.Printf("%-18s %-10s %12s %10s %10s %10s %9s %9s %12s\n",
		"design", "benchmark", "cycles", "wall ms", "ref ms", "scan ms", "ff-speed", "idx-speed", "allocs/op")
	for _, c := range r.Cases {
		fmt.Printf("%-18s %-10s %12d %10.2f %10.2f %10.2f %8.2fx %8.2fx %12d\n",
			c.Design, c.Benchmark, c.Cycles, c.WallMS, c.RefWallMS, c.ScanWallMS,
			c.FFSpeedup, c.IdxSpeedup, c.AllocsPerOp)
	}
}

// Gate tolerances.
//
// The fast-forward floor used to be 2.0x: before the indexed scheduler,
// skipping an idle window beat scanning it cycle by cycle. The ready
// memo now prices an idle cycle at a few loads, so the fast-forward's
// wall-clock win has collapsed to ~1x by design — the floor survives
// only as a regression guard that fast-forward never *costs* wall
// clock. The load-bearing speedup gate is the indexed scheduler's: the
// scan-scheduler run must stay well behind on a write-heavy workload.
const (
	allocTolFrac    = 0.10 // +10 % allocations per run
	allocTolSlack   = 1000 // plus absolute slack for tiny runs
	ffSpeedupFloor  = 0.85 // best write-heavy fast-forward speedup (regression guard)
	idxSpeedupFloor = 1.3  // best write-heavy indexed-scheduling speedup
)

// Prior-PR gate tolerances: the hot-path overhaul must beat the
// previous PR's committed operating point, not merely hold its own
// floors. Wall-clock ratios are same-machine comparisons — meaningful
// on the box that recorded the prior baseline (and in CI, where both
// baselines come from the same runner class) — so the speedup gate
// uses the best write-heavy case, where host-load noise is smallest
// relative to the win.
const (
	priorSpeedupFloor = 1.5 // best write-heavy wall-clock speedup vs the prior PR
)

// gateAgainstPrior enforces the PR 5 acceptance criteria against the
// previous PR's report: allocations per run strictly below the prior
// baseline on every shared case, and a >=1.5x wall-clock speedup on the
// best write-heavy workload.
func gateAgainstPrior(got, prior *Report) error {
	byKey := map[string]Case{}
	for _, c := range prior.Cases {
		byKey[c.Design+"/"+c.Benchmark] = c
	}
	var failures []string
	bestSpeedup, bestCase := 0.0, ""
	for _, c := range got.Cases {
		p, ok := byKey[c.Design+"/"+c.Benchmark]
		if !ok {
			continue // new case: nothing to compare against
		}
		if c.AllocsPerOp >= p.AllocsPerOp {
			failures = append(failures, fmt.Sprintf(
				"%s/%s: %d allocs/op not strictly below prior %d",
				c.Design, c.Benchmark, c.AllocsPerOp, p.AllocsPerOp))
		}
		if c.WriteHeavy && p.WallMS > 0 {
			if s := p.WallMS / c.WallMS; s > bestSpeedup {
				bestSpeedup, bestCase = s, c.Design+"/"+c.Benchmark
			}
		}
	}
	if bestSpeedup < priorSpeedupFloor {
		failures = append(failures, fmt.Sprintf(
			"best write-heavy wall-clock speedup vs prior %.2fx (%s) below the %.1fx floor",
			bestSpeedup, bestCase, priorSpeedupFloor))
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "PRIOR GATE FAIL:", f)
		}
		return fmt.Errorf("%d prior-baseline gate failure(s)", len(failures))
	}
	fmt.Printf("prior-baseline gates passed: allocs strictly below prior on every shared case, best write-heavy speedup %.2fx (%s) >= %.1fx\n",
		bestSpeedup, bestCase, priorSpeedupFloor)
	return nil
}

func gate(got, want *Report) error {
	byKey := map[string]Case{}
	for _, c := range want.Cases {
		byKey[c.Design+"/"+c.Benchmark] = c
	}
	var failures []string
	bestFF, bestIdx := 0.0, 0.0
	for _, c := range got.Cases {
		if c.WriteHeavy {
			bestFF = max(bestFF, c.FFSpeedup)
			bestIdx = max(bestIdx, c.IdxSpeedup)
		}
		b, ok := byKey[c.Design+"/"+c.Benchmark]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s/%s: no baseline entry", c.Design, c.Benchmark))
			continue
		}
		if c.Cycles != b.Cycles {
			failures = append(failures, fmt.Sprintf(
				"%s/%s: simulated cycles %d != baseline %d (model change? regenerate the baseline with -o)",
				c.Design, c.Benchmark, c.Cycles, b.Cycles))
		}
		if limit := uint64(float64(b.AllocsPerOp)*(1+allocTolFrac)) + allocTolSlack; c.AllocsPerOp > limit {
			failures = append(failures, fmt.Sprintf(
				"%s/%s: %d allocs/op exceeds baseline %d by more than %.0f%%+%d",
				c.Design, c.Benchmark, c.AllocsPerOp, b.AllocsPerOp, allocTolFrac*100, allocTolSlack))
		}
	}
	if bestFF < ffSpeedupFloor {
		failures = append(failures, fmt.Sprintf(
			"best write-heavy fast-forward speedup %.2fx below the %.2fx floor", bestFF, ffSpeedupFloor))
	}
	if bestIdx < idxSpeedupFloor {
		failures = append(failures, fmt.Sprintf(
			"best write-heavy indexed-scheduling speedup %.2fx below the %.1fx floor", bestIdx, idxSpeedupFloor))
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "GATE FAIL:", f)
		}
		return fmt.Errorf("%d perf gate failure(s)", len(failures))
	}
	fmt.Printf("perf gates passed: cycles exact, allocs within %.0f%%, write-heavy ff-speedup %.2fx >= %.2fx, idx-speedup %.2fx >= %.1fx\n",
		allocTolFrac*100, bestFF, ffSpeedupFloor, bestIdx, idxSpeedupFloor)
	return nil
}

// gateCycles checks only simulated-cycle exactness against an older
// baseline whose wall-ratio metrics predate the current harness (the
// PR 4 report has no idx columns and recorded fast-forward speedups the
// ready memo has since collapsed). Cycle counts are the one metric that
// must hold across every optimization forever.
func gateCycles(got, want *Report) error {
	byKey := map[string]Case{}
	for _, c := range want.Cases {
		byKey[c.Design+"/"+c.Benchmark] = c
	}
	var failures []string
	for _, c := range got.Cases {
		b, ok := byKey[c.Design+"/"+c.Benchmark]
		if !ok {
			continue // the older matrix may be a subset
		}
		if c.Cycles != b.Cycles {
			failures = append(failures, fmt.Sprintf(
				"%s/%s: simulated cycles %d != prior baseline %d", c.Design, c.Benchmark, c.Cycles, b.Cycles))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "CYCLES GATE FAIL:", f)
		}
		return fmt.Errorf("%d cycle-exactness failure(s) against prior baseline", len(failures))
	}
	fmt.Println("cycles gate passed: simulated cycle counts exactly match the prior baseline")
	return nil
}
