package fgnvm

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// tinyParams keeps experiment tests fast while still touching every
// code path.
func tinyParams() ExperimentParams {
	return ExperimentParams{
		Instructions: 15_000,
		Benchmarks:   []string{"mcf", "libquantum"},
	}
}

func TestFigure4ShapeHolds(t *testing.T) {
	res, err := Figure4(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.BaselineIPC <= 0 {
			t.Errorf("%s: baseline IPC %v", r.Benchmark, r.BaselineIPC)
		}
		// The qualitative orderings of Figure 4.
		if r.FgNVM < 1.0-1e-9 {
			t.Errorf("%s: FgNVM speedup %.3f below 1", r.Benchmark, r.FgNVM)
		}
		if r.ManyBanks < r.FgNVM {
			t.Errorf("%s: 128 banks %.3f below FgNVM %.3f", r.Benchmark, r.ManyBanks, r.FgNVM)
		}
	}
	if res.GeoMeanFgNVM <= 1 || res.GeoMeanManyBanks <= res.GeoMeanFgNVM {
		t.Errorf("gmeans out of order: fgnvm %.3f manybanks %.3f",
			res.GeoMeanFgNVM, res.GeoMeanManyBanks)
	}
	if res.GeoMeanMultiIssue <= res.GeoMeanFgNVM {
		t.Errorf("multi-issue gmean %.3f not above fgnvm %.3f",
			res.GeoMeanMultiIssue, res.GeoMeanFgNVM)
	}
}

func TestFigure5ShapeHolds(t *testing.T) {
	res, err := Figure5(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if !(r.E8x2 < 1 && r.E8x8 < r.E8x2 && r.E8x32 < r.E8x8) {
			t.Errorf("%s: energy not monotone: %.3f %.3f %.3f",
				r.Benchmark, r.E8x2, r.E8x8, r.E8x32)
		}
		if r.E8x32Perf <= 0 || r.E8x32Perf >= r.E8x32 {
			t.Errorf("%s: perfect bound %.4f not below 8x32 %.3f",
				r.Benchmark, r.E8x32Perf, r.E8x32)
		}
	}
	if !(res.Mean8x2 < 1 && res.Mean8x8 < res.Mean8x2 && res.Mean8x32 < res.Mean8x8) {
		t.Errorf("means not monotone: %.3f %.3f %.3f", res.Mean8x2, res.Mean8x8, res.Mean8x32)
	}
}

func TestFigure4ParallelMatchesSerial(t *testing.T) {
	p := tinyParams()
	p.Parallel = 1
	serial, err := Figure4(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallel = 4
	parallel, err := Figure4(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatal("row counts differ")
	}
	for i := range serial.Rows {
		if serial.Rows[i] != parallel.Rows[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, serial.Rows[i], parallel.Rows[i])
		}
	}
}

// TestStallStoryParallelMatchesSerial pins that the stall story's
// four points give the same rows on one worker and on four.
func TestStallStoryParallelMatchesSerial(t *testing.T) {
	p := ExperimentParams{Instructions: 15_000, Benchmarks: []string{"lbm"}, Parallel: 1}
	serial, err := StallStory(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallel = 4
	parallel, err := StallStory(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != 4 || len(parallel.Rows) != len(serial.Rows) {
		t.Fatalf("row counts %d and %d, want 4", len(serial.Rows), len(parallel.Rows))
	}
	for i := range serial.Rows {
		if serial.Rows[i] != parallel.Rows[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, serial.Rows[i], parallel.Rows[i])
		}
	}
}

func TestFigure4UnknownBenchmarkFails(t *testing.T) {
	p := tinyParams()
	p.Benchmarks = []string{"nope"}
	if _, err := Figure4(p); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := Figure5(p); err == nil {
		t.Fatal("unknown benchmark accepted by Figure5")
	}
}

func TestFigure4AggregatesAllErrors(t *testing.T) {
	// Two broken benchmarks: the error must name both, not just the
	// first by index (multi-benchmark failures used to be masked).
	p := tinyParams()
	p.Benchmarks = []string{"bogus-one", "mcf", "bogus-two"}
	_, err := Figure4(p)
	if err == nil {
		t.Fatal("broken benchmarks accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "bogus-one") || !strings.Contains(msg, "bogus-two") {
		t.Errorf("aggregated error missing a failure: %v", err)
	}
}

func TestForEachNJoinsWorkerErrors(t *testing.T) {
	errA := errors.New("worker A failed")
	errB := errors.New("worker B failed")
	err := forEachN(context.Background(), 4, 2, func(i int) error {
		switch i {
		case 1:
			return errA
		case 3:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Errorf("joined error lost a worker failure: %v", err)
	}
	if err := forEachN(context.Background(), 3, 2, func(int) error { return nil }); err != nil {
		t.Errorf("all-success forEachN returned %v", err)
	}
}

// TestForEachNRecoversPanics: a panicking job becomes an error naming
// its index, and every other job still runs to completion.
func TestForEachNRecoversPanics(t *testing.T) {
	var done [6]atomic.Bool
	err := forEachN(context.Background(), len(done), 2, func(i int) error {
		if i == 3 {
			panic("boom")
		}
		done[i].Store(true)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "job 3 panicked: boom") {
		t.Fatalf("forEachN error = %v, want one naming job 3's panic", err)
	}
	for i := range done {
		if i != 3 && !done[i].Load() {
			t.Errorf("job %d did not run after job 3 panicked", i)
		}
	}
}

func TestFigure4ContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Figure4Context(ctx, tinyParams())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Figure4Context err = %v, want context.Canceled", err)
	}
	if _, err := Figure5Context(ctx, tinyParams()); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled Figure5Context err = %v, want context.Canceled", err)
	}
}

func TestTable1Structure(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("Table 1 has %d rows, want 5", len(rows))
	}
	var total Table1Row
	for _, r := range rows {
		if r.Component == "Total" {
			total = r
		}
	}
	if total.Component == "" {
		t.Fatal("no Total row")
	}
	// The total must equal the sum of the area components.
	sumAvg := rows[1].AvgUm2 + rows[2].AvgUm2 + rows[3].AvgUm2
	if diff := total.AvgUm2 - sumAvg; diff > 0.5 || diff < -0.5 {
		t.Errorf("total avg %.1f != component sum %.1f", total.AvgUm2, sumAvg)
	}
}

func TestSummary(t *testing.T) {
	s, err := Summary(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if s.PerfImprovementPct <= 0 {
		t.Errorf("performance improvement %.1f%% not positive", s.PerfImprovementPct)
	}
	if s.Energy8x2Pct <= 0 || s.Energy8x8Pct <= s.Energy8x2Pct || s.Energy8x32Pct <= s.Energy8x8Pct {
		t.Errorf("energy reductions not increasing: %.1f %.1f %.1f",
			s.Energy8x2Pct, s.Energy8x8Pct, s.Energy8x32Pct)
	}
}

// TestSummaryMatchesFigures pins that Summary, which simulates the runs
// the two figures share once, reports exactly the figures Figure4 and
// Figure5 compute on their own, at one worker and at four.
func TestSummaryMatchesFigures(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		p := tinyParams()
		p.Parallel = parallel
		s, err := Summary(p)
		if err != nil {
			t.Fatal(err)
		}
		f4, err := Figure4(p)
		if err != nil {
			t.Fatal(err)
		}
		f5, err := Figure5(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			got, want any
		}{{"Figure 4", s.Fig4, f4}, {"Figure 5", s.Fig5, f5}} {
			got, want := mustJSON(t, c.got), mustJSON(t, c.want)
			if !bytes.Equal(got, want) {
				t.Errorf("Parallel=%d: Summary's %s differs from its own run:\n  summary: %s\n  figure : %s", parallel, c.name, got, want)
			}
		}
	}
}

func TestDeviceModelDrivesRun(t *testing.T) {
	// The prototype device must be indistinguishable from Table 2.
	table2, err := Run(Options{Design: DesignFgNVM, Benchmark: "mcf", Instructions: tinyInstr})
	if err != nil {
		t.Fatal(err)
	}
	proto, err := Run(Options{Design: DesignFgNVM, Benchmark: "mcf", Instructions: tinyInstr,
		Device: &DeviceParams{}})
	if err != nil {
		t.Fatal(err)
	}
	if table2.Cycles != proto.Cycles {
		t.Errorf("prototype device run (%d cycles) differs from Table 2 run (%d)",
			proto.Cycles, table2.Cycles)
	}
	// A larger tile (longer bitlines/wordlines) must be slower.
	big, err := Run(Options{Design: DesignFgNVM, Benchmark: "mcf", Instructions: tinyInstr,
		Device: &DeviceParams{TileRows: 4096, TileCols: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	if big.IPC >= proto.IPC {
		t.Errorf("4Kx4K tile IPC %.4f not below 1Kx1K %.4f", big.IPC, proto.IPC)
	}
	if big.Energy.ReadPJ <= proto.Energy.ReadPJ {
		t.Error("longer bitlines should cost more read energy")
	}
	// Device and Timings are mutually exclusive.
	tm := timingPaperForTest()
	if _, err := Run(Options{Design: DesignFgNVM, Benchmark: "mcf", Instructions: tinyInstr,
		Device: &DeviceParams{}, Timings: &tm}); err == nil {
		t.Error("Device+Timings accepted")
	}
}

func TestPercentilesPopulated(t *testing.T) {
	r, err := Run(Options{Design: DesignBaseline, Benchmark: "mcf", Instructions: tinyInstr})
	if err != nil {
		t.Fatal(err)
	}
	if r.P50ReadLatency == 0 || r.P95ReadLatency < r.P50ReadLatency || r.P99ReadLatency < r.P95ReadLatency {
		t.Errorf("percentiles not sane: p50=%d p95=%d p99=%d",
			r.P50ReadLatency, r.P95ReadLatency, r.P99ReadLatency)
	}
}

func TestMultiCoreRuns(t *testing.T) {
	r, err := Run(Options{Design: DesignFgNVM, Benchmark: "mcf", Cores: 2, Instructions: tinyInstr})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cores != 2 {
		t.Fatalf("Cores = %d", r.Cores)
	}
	if r.Instructions != 2*tinyInstr {
		t.Fatalf("Instructions = %d, want %d", r.Instructions, 2*tinyInstr)
	}
	if r.Benchmark != "2xmcf" {
		t.Fatalf("Benchmark = %q", r.Benchmark)
	}
	if r.MinCoreIPC <= 0 || r.MaxCoreIPC < r.MinCoreIPC || r.IPC < r.MaxCoreIPC {
		t.Fatalf("per-core IPC accounting wrong: sum=%.3f min=%.3f max=%.3f",
			r.IPC, r.MinCoreIPC, r.MaxCoreIPC)
	}
}

func TestMixRuns(t *testing.T) {
	r, err := Run(Options{Design: DesignFgNVM, Mix: []string{"mcf", "libquantum"}, Instructions: tinyInstr})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cores != 2 || r.Benchmark != "mcf+libquantum" {
		t.Fatalf("mix run: cores=%d name=%q", r.Cores, r.Benchmark)
	}
}

func TestMultiCoreValidation(t *testing.T) {
	if _, err := Run(Options{Benchmark: "mcf", Cores: 5, Instructions: tinyInstr}); err == nil {
		t.Error("5 cores accepted (region budget is 4)")
	}
	if _, err := Run(Options{Mix: []string{"mcf", "nope"}, Instructions: tinyInstr}); err == nil {
		t.Error("unknown mix benchmark accepted")
	}
	if _, err := Run(Options{Stream: nil, Benchmark: "mcf", Cores: 2, Mix: nil, Instructions: tinyInstr}); err != nil {
		t.Errorf("2-core homogeneous run rejected: %v", err)
	}
}

// TestContentionGrowsFgNVMBenefit pins the multi-core trend: with more
// cores sharing the memory system, FgNVM's speedup over the baseline
// must not shrink.
func TestContentionGrowsFgNVMBenefit(t *testing.T) {
	speedup := func(cores int) float64 {
		base, err := Run(Options{Design: DesignBaseline, Benchmark: "mcf", Cores: cores, Instructions: tinyInstr})
		if err != nil {
			t.Fatal(err)
		}
		fg, err := Run(Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: "mcf", Cores: cores, Instructions: tinyInstr})
		if err != nil {
			t.Fatal(err)
		}
		return fg.SpeedupOver(base)
	}
	one := speedup(1)
	four := speedup(4)
	if four <= one {
		t.Fatalf("speedup at 4 cores (%.3f) not above 1 core (%.3f)", four, one)
	}
}

func TestRRAMTechnology(t *testing.T) {
	if TechPCM.String() != "pcm" || TechRRAM.String() != "rram" || Technology(9).String() == "" {
		t.Fatal("technology names wrong")
	}
	pcm, err := Run(Options{Design: DesignFgNVM, Benchmark: "lbm", Instructions: tinyInstr})
	if err != nil {
		t.Fatal(err)
	}
	rram, err := Run(Options{Design: DesignFgNVM, Benchmark: "lbm", Instructions: tinyInstr,
		Technology: TechRRAM})
	if err != nil {
		t.Fatal(err)
	}
	// RRAM's 3x faster writes and faster reads must show on a
	// write-heavy workload.
	if rram.IPC <= pcm.IPC {
		t.Errorf("RRAM IPC %.4f not above PCM %.4f", rram.IPC, pcm.IPC)
	}
	// And its 4 pJ/bit writes must cut write energy by exactly 4x for
	// the same number of lines written.
	if rram.Writes == pcm.Writes {
		ratio := pcm.Energy.WritePJ / rram.Energy.WritePJ
		if ratio < 3.9 || ratio > 4.1 {
			t.Errorf("write energy ratio %.2f, want 4 (16 vs 4 pJ/bit)", ratio)
		}
	}
}

func TestDRAMDesign(t *testing.T) {
	d, err := Run(Options{Design: DesignDRAM, Benchmark: "mcf", Instructions: tinyInstr})
	if err != nil {
		t.Fatal(err)
	}
	if d.Design != DesignDRAM || d.Reads == 0 {
		t.Fatalf("DRAM run malformed: %+v", d)
	}
	if d.Energy.TotalPJ != 0 {
		t.Error("DRAM energy should be unmodeled (zero)")
	}
	// The technology gap the paper frames in §2: DDR3-class latency
	// beats the PCM baseline, and FgNVM recovers part of the gap.
	pcm, err := Run(Options{Design: DesignBaseline, Benchmark: "mcf", Instructions: tinyInstr})
	if err != nil {
		t.Fatal(err)
	}
	fg, err := Run(Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: "mcf", Instructions: tinyInstr})
	if err != nil {
		t.Fatal(err)
	}
	if !(d.IPC > fg.IPC && fg.IPC > pcm.IPC) {
		t.Fatalf("ordering broken: dram %.3f, fgnvm %.3f, pcm %.3f", d.IPC, fg.IPC, pcm.IPC)
	}
	if d.AvgReadLatency >= pcm.AvgReadLatency {
		t.Fatalf("DRAM read latency %.1f not below PCM %.1f", d.AvgReadLatency, pcm.AvgReadLatency)
	}
}

// TestModeAblation isolates each access mode's contribution: enabling a
// mode must never hurt, and all-modes must beat any single mode on a
// mixed workload.
func TestModeAblation(t *testing.T) {
	runWith := func(m *AccessModeSet) Result {
		r, err := Run(Options{Design: DesignFgNVM, SAGs: 8, CDs: 8,
			Benchmark: "mcf", Instructions: smallInstr, Modes: m})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	none := runWith(&AccessModeSet{})
	partial := runWith(&AccessModeSet{PartialActivation: true})
	all := runWith(nil) // design default: all modes

	// Partial-Activation alone is an energy feature: it must cut
	// energy even without the parallel modes.
	if partial.Energy.TotalPJ >= none.Energy.TotalPJ {
		t.Errorf("partial activation did not cut energy: %.0f vs %.0f",
			partial.Energy.TotalPJ, none.Energy.TotalPJ)
	}
	// All modes must beat no modes on performance.
	if all.IPC <= none.IPC {
		t.Errorf("all modes IPC %.4f not above none %.4f", all.IPC, none.IPC)
	}
	// No-modes FgNVM degenerates to baseline-like behaviour.
	base, err := Run(Options{Design: DesignBaseline, Benchmark: "mcf", Instructions: smallInstr})
	if err != nil {
		t.Fatal(err)
	}
	if d := none.IPC/base.IPC - 1; d > 0.1 || d < -0.1 {
		t.Errorf("modeless FgNVM IPC %.4f far from baseline %.4f", none.IPC, base.IPC)
	}
}

// TestSeedRobustness guards against the headline result being a seed
// artifact: the FgNVM speedup on mcf must hold across several workload
// seeds with modest spread.
func TestSeedRobustness(t *testing.T) {
	var speedups []float64
	for seed := uint64(1); seed <= 3; seed++ {
		base, err := Run(Options{Design: DesignBaseline, Benchmark: "mcf",
			Instructions: smallInstr, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		fg, err := Run(Options{Design: DesignFgNVM, SAGs: 8, CDs: 8, Benchmark: "mcf",
			Instructions: smallInstr, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		speedups = append(speedups, fg.SpeedupOver(base))
	}
	lo, hi := speedups[0], speedups[0]
	for _, s := range speedups {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
		if s <= 1.05 {
			t.Errorf("seed run speedup %.3f barely above 1", s)
		}
	}
	if (hi-lo)/lo > 0.25 {
		t.Errorf("speedup spread too wide across seeds: %.3f..%.3f", lo, hi)
	}
}
