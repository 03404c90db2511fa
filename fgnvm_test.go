package fgnvm

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/timing"
	"repro/internal/trace"
)

// quick run sizes: large enough to reach steady state, small enough to
// keep `go test` fast.
const (
	tinyInstr  = 20_000
	smallInstr = 50_000
)

func TestDesignStringAndParse(t *testing.T) {
	for _, d := range Designs() {
		name := d.String()
		if name == "" || strings.HasPrefix(name, "Design(") {
			t.Fatalf("design %d has no name", int(d))
		}
		back, err := ParseDesign(name)
		if err != nil || back != d {
			t.Fatalf("ParseDesign(%q) = %v, %v", name, back, err)
		}
	}
	if _, err := ParseDesign("nonsense"); err == nil {
		t.Fatal("unknown design name parsed")
	}
	if Design(99).String() == "" {
		t.Fatal("unknown design should still render")
	}
}

func TestBenchmarksList(t *testing.T) {
	bs := Benchmarks()
	if len(bs) < 10 {
		t.Fatalf("only %d benchmarks", len(bs))
	}
	found := false
	for _, b := range bs {
		if b == "mcf" {
			found = true
		}
	}
	if !found {
		t.Fatal("mcf missing from benchmark list")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Error("run without workload accepted")
	}
	if _, err := Run(Options{Benchmark: "not-a-benchmark"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := Run(Options{Benchmark: "mcf", Stream: trace.NewSliceStream(nil)}); err == nil {
		t.Error("both Benchmark and Stream accepted")
	}
	bad := addr.Geometry{Channels: 3} // not a power of two
	if _, err := Run(Options{Benchmark: "mcf", Geometry: &bad}); err == nil {
		t.Error("bad geometry accepted")
	}
	if _, err := Run(Options{Design: Design(42), Benchmark: "mcf"}); err == nil {
		t.Error("unknown design accepted")
	}
	if _, err := Run(Options{Scheduler: Scheduler(7), Benchmark: "mcf"}); err == nil {
		t.Error("unknown scheduler accepted")
	}
	_, err := Run(Options{Technology: Technology(99), Benchmark: "mcf"})
	if err == nil || err.Error() != "fgnvm: unknown technology 99" {
		t.Errorf("unknown technology: err = %v, want \"fgnvm: unknown technology 99\"", err)
	}
}

func TestRunBaselineSmoke(t *testing.T) {
	r, err := Run(Options{Design: DesignBaseline, Benchmark: "mcf", Instructions: tinyInstr})
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != tinyInstr {
		t.Errorf("Instructions = %d, want %d", r.Instructions, tinyInstr)
	}
	if r.IPC <= 0 || r.IPC > 4 {
		t.Errorf("IPC = %v out of range", r.IPC)
	}
	if r.Reads == 0 {
		t.Error("no reads reached memory")
	}
	if r.Energy.TotalPJ <= 0 {
		t.Error("no energy accounted")
	}
	if r.SAGs != 1 || r.CDs != 1 {
		t.Errorf("baseline resolved to %dx%d, want 1x1", r.SAGs, r.CDs)
	}
	if r.LLCMissRate <= 0 || r.LLCMissRate > 1 {
		t.Errorf("LLCMissRate = %v", r.LLCMissRate)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	run := func() Result {
		r, err := Run(Options{Design: DesignFgNVM, Benchmark: "milc", Instructions: tinyInstr})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical options produced different results:\n%+v\n%+v", a, b)
	}
}

func TestSeedChangesResult(t *testing.T) {
	r1, err := Run(Options{Design: DesignBaseline, Benchmark: "milc", Instructions: tinyInstr, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Options{Design: DesignBaseline, Benchmark: "milc", Instructions: tinyInstr, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles == r2.Cycles && r1.Reads == r2.Reads {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestFgNVMBeatsBaseline is the headline performance claim at the
// smallest credible scale: FgNVM IPC must exceed the baseline's on a
// memory-intensive benchmark.
func TestFgNVMBeatsBaseline(t *testing.T) {
	base, err := Run(Options{Design: DesignBaseline, Benchmark: "mcf", Instructions: smallInstr})
	if err != nil {
		t.Fatal(err)
	}
	fg, err := Run(Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: "mcf", Instructions: smallInstr})
	if err != nil {
		t.Fatal(err)
	}
	if fg.IPC <= base.IPC {
		t.Fatalf("FgNVM IPC %.4f not above baseline %.4f", fg.IPC, base.IPC)
	}
	if fg.BackgroundedRds == 0 {
		t.Error("no reads completed under a backgrounded write")
	}
}

// TestEnergyOrdering checks Figure 5's monotonicity: more column
// divisions → less energy, and every FgNVM design beats the baseline.
func TestEnergyOrdering(t *testing.T) {
	base, err := Run(Options{Design: DesignBaseline, Benchmark: "mcf", Instructions: smallInstr})
	if err != nil {
		t.Fatal(err)
	}
	prev := base.Energy.TotalPJ
	for _, cds := range []int{2, 8, 32} {
		r, err := Run(Options{Design: DesignFgNVM, SAGs: 8, CDs: cds, Benchmark: "mcf", Instructions: smallInstr})
		if err != nil {
			t.Fatal(err)
		}
		if r.Energy.TotalPJ >= prev {
			t.Fatalf("8x%d energy %.0f pJ not below previous %.0f pJ", cds, r.Energy.TotalPJ, prev)
		}
		prev = r.Energy.TotalPJ
	}
}

// TestManyBanksBeatsFgNVM checks Figure 4's ordering: the idealized
// 128-bank design outperforms the equivalent FgNVM due to column
// conflicts and underfetch (Section 6).
func TestManyBanksBeatsFgNVM(t *testing.T) {
	fg, err := Run(Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: "mcf", Instructions: smallInstr})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := Run(Options{Design: DesignManyBanks, SAGs: 8, CDs: 2, Benchmark: "mcf", Instructions: smallInstr})
	if err != nil {
		t.Fatal(err)
	}
	if mb.IPC <= fg.IPC {
		t.Fatalf("128 banks IPC %.4f not above FgNVM %.4f", mb.IPC, fg.IPC)
	}
}

// TestMultiIssueImprovesFgNVM checks the augmented-scheduler claim.
func TestMultiIssueImprovesFgNVM(t *testing.T) {
	fg, err := Run(Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: "lbm", Instructions: smallInstr})
	if err != nil {
		t.Fatal(err)
	}
	mi, err := Run(Options{Design: DesignFgNVMMultiIssue, SAGs: 8, CDs: 2, Benchmark: "lbm", Instructions: smallInstr})
	if err != nil {
		t.Fatal(err)
	}
	if mi.IPC <= fg.IPC {
		t.Fatalf("multi-issue IPC %.4f not above single-issue %.4f", mi.IPC, fg.IPC)
	}
}

func TestCustomStream(t *testing.T) {
	var accs []trace.Access
	for i := 0; i < 200; i++ {
		accs = append(accs, trace.Access{Gap: 10, Addr: uint64(i) * 64})
	}
	r, err := Run(Options{
		Design: DesignFgNVM, Stream: trace.NewSliceStream(accs),
		Instructions: 3000, SkipLLC: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Benchmark != "custom" {
		t.Errorf("Benchmark = %q, want custom", r.Benchmark)
	}
	if r.Reads != 200 {
		t.Errorf("Reads = %d, want 200", r.Reads)
	}
}

func TestSkipLLCSendsEverything(t *testing.T) {
	with, err := Run(Options{Design: DesignBaseline, Benchmark: "libquantum", Instructions: tinyInstr})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(Options{Design: DesignBaseline, Benchmark: "libquantum", Instructions: tinyInstr, SkipLLC: true})
	if err != nil {
		t.Fatal(err)
	}
	if without.LLCMissRate != 0 {
		t.Error("SkipLLC run reported an LLC miss rate")
	}
	if without.Writes != 0 {
		t.Error("without an LLC there are no dirty evictions, so no writes")
	}
	if with.Writes == 0 {
		t.Error("warmed LLC produced no writebacks")
	}
	if without.Reads == 0 {
		t.Error("SkipLLC run sent no reads")
	}
}

func TestSpeedupAndRelativeEnergyHelpers(t *testing.T) {
	base := Result{IPC: 2, Energy: EnergyBreakdown{TotalPJ: 100}}
	r := Result{IPC: 3, Energy: EnergyBreakdown{TotalPJ: 50}}
	if got := r.SpeedupOver(base); got != 1.5 {
		t.Errorf("SpeedupOver = %v", got)
	}
	if got := r.RelativeEnergy(base); got != 0.5 {
		t.Errorf("RelativeEnergy = %v", got)
	}
	// Regression: a broken baseline (zero IPC / zero energy) must not
	// masquerade as "no speedup" — the ratio is meaningless, so NaN.
	var zero Result
	if !math.IsNaN(r.SpeedupOver(zero)) {
		t.Errorf("SpeedupOver(zero baseline) = %v, want NaN", r.SpeedupOver(zero))
	}
	if !math.IsNaN(r.RelativeEnergy(zero)) {
		t.Errorf("RelativeEnergy(zero baseline) = %v, want NaN", r.RelativeEnergy(zero))
	}
}

func TestRunContextCancellation(t *testing.T) {
	// Already-cancelled context: no work at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, Options{Benchmark: "mcf"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunContext err = %v, want context.Canceled", err)
	}

	// Cancellation mid-run: the simulation loop must notice promptly
	// instead of running out its full retire budget.
	ctx, cancel = context.WithCancel(context.Background())
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := RunContext(ctx, Options{
			Design: DesignFgNVM, Benchmark: "mcf", Instructions: 50_000_000,
		})
		done <- err
	}()
	<-started
	time.Sleep(10 * time.Millisecond) // let the run enter its main loop
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-run cancel err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return promptly")
	}

	// Run (no context) still works and equals RunContext(Background).
	a, err := Run(Options{Benchmark: "mcf", Instructions: tinyInstr})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), Options{Benchmark: "mcf", Instructions: tinyInstr})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("Run and RunContext(Background) disagree on identical Options")
	}
}

// TestWarmupHonoursDeadline: the LLC warm-up polls ctx like the main
// loop does, so an absurd warm-up length cannot outlive its deadline.
func TestWarmupHonoursDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, Options{Benchmark: "mcf", Instructions: 2_000, WarmupAccesses: 1 << 40})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("warm-up returned %v after a 100ms deadline", d)
	}
}

func TestSALPDesignResolves(t *testing.T) {
	r, err := Run(Options{Design: DesignSALP, SAGs: 8, Benchmark: "mcf", Instructions: tinyInstr})
	if err != nil {
		t.Fatal(err)
	}
	if r.CDs != 1 || r.SAGs != 8 {
		t.Errorf("SALP resolved to %dx%d, want 8x1", r.SAGs, r.CDs)
	}
}

func TestManyBanksGeometryResolution(t *testing.T) {
	r, err := Run(Options{Design: DesignManyBanks, SAGs: 8, CDs: 2, Benchmark: "mcf", Instructions: tinyInstr})
	if err != nil {
		t.Fatal(err)
	}
	if r.SAGs != 1 || r.CDs != 1 {
		t.Errorf("many-banks subdivisions = %dx%d, want 1x1", r.SAGs, r.CDs)
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	_, err := Run(Options{Design: DesignBaseline, Benchmark: "mcf",
		Instructions: 1_000_000, MaxCycles: 10})
	if err == nil {
		t.Fatal("MaxCycles overrun not reported")
	}
}

func TestWarmupDisabled(t *testing.T) {
	cold, err := Run(Options{Design: DesignBaseline, Benchmark: "mcf",
		Instructions: tinyInstr, WarmupAccesses: -1})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(Options{Design: DesignBaseline, Benchmark: "mcf",
		Instructions: tinyInstr})
	if err != nil {
		t.Fatal(err)
	}
	// A cold cache produces almost no writebacks; a warm one must.
	if cold.Writes >= warm.Writes {
		t.Errorf("cold writes %d >= warm writes %d", cold.Writes, warm.Writes)
	}
}

// timingPaperForTest re-exports the Table 2 timings for option tests.
func timingPaperForTest() timing.Timings { return timing.Paper() }
