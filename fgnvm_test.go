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

// TestCanonicalRejects: a negative core count (once run silently as
// one core) and lane counts past maxIssueLanes (2^24 lanes pins a
// worker for seconds) are refused, even by designs that ignore them.
func TestCanonicalRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    Options
	}{
		{"negative cores", Options{Benchmark: "mcf", Cores: -3}},
		{"negative cores under mix", Options{Mix: []string{"mcf"}, Cores: -1}},
		{"lanes past the cap", Options{Benchmark: "mcf", IssueLanes: maxIssueLanes + 1}},
		{"2^24 lanes", Options{Design: DesignFgNVMMultiIssue, Benchmark: "mcf", IssueLanes: 1 << 24}},
		{"2^24 lanes on dram", Options{Design: DesignDRAM, Benchmark: "mcf", IssueLanes: 1 << 24}},
		{"negative lanes", Options{Benchmark: "mcf", IssueLanes: -1}},
		{"warm-up past the cap", Options{Benchmark: "mcf", WarmupAccesses: maxWarmupAccesses + 1}},
		{"a ROB past the cap", Options{Benchmark: "mcf", Core: CoreParams{ROB: maxCoreParam + 1}}},
		{"negative MSHRs", Options{Benchmark: "mcf", Core: CoreParams{MSHRs: -1}}},
		{"16384x64 grid on the paper geometry", Options{Design: DesignFgNVM, Benchmark: "mcf", SAGs: 16384, CDs: 64}},
		{"65536x4 grid on the paper geometry", Options{Design: DesignFgNVM, Benchmark: "mcf", SAGs: 65536, CDs: 4}},
		{"2^20 baseline banks", Options{Benchmark: "mcf", Geometry: &addr.Geometry{
			Channels: 1, Ranks: 1, Banks: 1 << 20, Rows: 65536, Cols: 64, LineBytes: 64}}},
		{"2^15 one-bank channels", Options{Benchmark: "mcf", Geometry: &addr.Geometry{
			Channels: 1 << 15, Ranks: 1, Banks: 1, Rows: 65536, Cols: 64, LineBytes: 64}}},
		{"many-banks flattens a 1024x64 grid into banks", Options{Design: DesignManyBanks, Benchmark: "mcf", SAGs: 1024, CDs: 64}},
		{"a device of negative feature size", Options{Design: DesignFgNVM, Benchmark: "mcf", Device: &DeviceParams{FeatureNm: -1}}},
		{"a GEMM with more cores than tiles", Options{Design: DesignFgNVM, Cores: 4, Workload: &WorkloadSpec{M: 8, K: 8, N: 8}}},
		{"dimensions whose product overflows", Options{Design: DesignFgNVM, Benchmark: "mcf", SAGs: 1 << 32, CDs: 1 << 32,
			Geometry: &addr.Geometry{Channels: 1 << 40, Ranks: 1 << 40, Banks: 1 << 40, Rows: 1 << 32, Cols: 1 << 32, LineBytes: 64}}},
	} {
		if _, err := tc.o.Canonical(); err == nil {
			t.Errorf("%s: Canonical accepted %+v", tc.name, tc.o)
		}
		if _, err := Run(tc.o); err == nil {
			t.Errorf("%s: Run accepted %+v", tc.name, tc.o)
		}
	}
	if _, err := (Options{Benchmark: "mcf", IssueLanes: maxIssueLanes}).Canonical(); err != nil {
		t.Errorf("IssueLanes = maxIssueLanes rejected: %v", err)
	}
	if _, err := (Options{Benchmark: "mcf", WarmupAccesses: maxWarmupAccesses}).Canonical(); err != nil {
		t.Errorf("WarmupAccesses = maxWarmupAccesses rejected: %v", err)
	}
	// The largest grids of each shape under the bank-state budget.
	for _, o := range []Options{
		{Design: DesignFgNVM, Benchmark: "mcf", SAGs: 65536, CDs: 2},
		{Design: DesignFgNVM, Benchmark: "mcf", SAGs: 4096, CDs: 64},
		{Benchmark: "mcf", Geometry: &addr.Geometry{Channels: 1, Ranks: 1, Banks: 1 << 15, Rows: 65536, Cols: 64, LineBytes: 64}},
		{Design: DesignManyBanks, Benchmark: "mcf", SAGs: 256, CDs: 16},
	} {
		if _, err := o.Canonical(); err != nil {
			t.Errorf("%v %dx%d rejected: %v", o.Design, o.SAGs, o.CDs, err)
		}
	}
}

// TestCanonicalResetsIgnoredFields: options that differ only in
// defaults spelled out, or in fields the design or workload ignores,
// canonicalize equal.
func TestCanonicalResetsIgnoredFields(t *testing.T) {
	modes := &AccessModeSet{PartialActivation: true}
	for _, tc := range []struct {
		name string
		a, b Options
	}{
		{"defaults spelled out",
			Options{Design: DesignFgNVM, Benchmark: "mcf"},
			Options{Design: DesignFgNVM, Benchmark: "mcf", SAGs: 8, CDs: 2, Cores: 1, Instructions: 200_000,
				Seed: 1, IssueLanes: 1, MaxCycles: 2_000_000_000, WarmupAccesses: DefaultWarmupAccesses}},
		{"baseline grid",
			Options{Benchmark: "mcf"},
			Options{Benchmark: "mcf", SAGs: 4, CDs: 8, Modes: modes}},
		{"salp cds",
			Options{Design: DesignSALP, Benchmark: "mcf"},
			Options{Design: DesignSALP, Benchmark: "mcf", CDs: 8, Modes: modes}},
		{"manybanks modes",
			Options{Design: DesignManyBanks, Benchmark: "mcf"},
			Options{Design: DesignManyBanks, Benchmark: "mcf", Modes: modes}},
		{"dram controller knobs",
			Options{Design: DesignDRAM, Benchmark: "mcf"},
			Options{Design: DesignDRAM, Benchmark: "mcf", SAGs: 4, Scheduler: SchedFCFS, IssueLanes: 4,
				Technology: TechRRAM, Telemetry: &TelemetryOptions{Attribution: true},
				Device: &DeviceParams{FeatureNm: 22}}},
		{"dram timings",
			Options{Design: DesignDRAM, Benchmark: "mcf"},
			Options{Design: DesignDRAM, Benchmark: "mcf", Timings: &timing.Timings{TRCD: 1}}},
		{"workload seed",
			Options{Workload: &WorkloadSpec{Preset: "gpt2s-attn-qkv"}},
			Options{Workload: &WorkloadSpec{Preset: "gpt2s-attn-qkv", Tiling: "sag"}, Seed: 7}},
		{"mix overrides benchmark and cores",
			Options{Mix: []string{"mcf", "lbm"}},
			Options{Mix: []string{"mcf", "lbm"}, Benchmark: "mcf", Cores: 3}},
		{"technology ignored under device",
			Options{Benchmark: "mcf", Device: &DeviceParams{FeatureNm: 22}},
			Options{Benchmark: "mcf", Device: &DeviceParams{FeatureNm: 22}, Technology: TechRRAM}},
		{"warm-up ignored without LLC",
			Options{Benchmark: "mcf", SkipLLC: true},
			Options{Benchmark: "mcf", SkipLLC: true, WarmupAccesses: -7}},
	} {
		ca, err := tc.a.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		cb, err := tc.b.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(ca, cb) {
			t.Errorf("%s: canonical forms differ:\n%+v\n%+v", tc.name, ca, cb)
		}
	}
}

// TestCanonicalDoesNotAllocate pins the single-benchmark path that
// every Run takes to zero allocations.
func TestCanonicalDoesNotAllocate(t *testing.T) {
	o := Options{Design: DesignFgNVM, Benchmark: "mcf"}
	if n := testing.AllocsPerRun(100, func() { _, _ = o.Canonical() }); n != 0 {
		t.Errorf("Canonical allocates %.1f times per call, want 0", n)
	}
}

// FuzzOptionsCanonical: Canonical never panics, and the canonical form
// of a canonical form is itself.
func FuzzOptionsCanonical(f *testing.F) {
	f.Add(int(DesignFgNVM), 8, 2, 1, 0, 0, uint64(1), uint64(20_000), false, 0, 0, "mcf")
	f.Add(int(DesignDRAM), 4, 8, 2, 4, -5, uint64(7), uint64(0), true, 1, 1, "lbm")
	f.Add(int(DesignSALP), 0, 3, 0, 64, DefaultWarmupAccesses, uint64(0), uint64(1), false, 0, 1, "milc")
	f.Add(int(DesignManyBanks), -1, 0, -3, 1<<24, 100, uint64(2), uint64(5), false, 2, -1, "nope")
	f.Fuzz(func(t *testing.T, design, sags, cds, cores, lanes, warmup int, seed, instr uint64,
		skipLLC bool, sched, tech int, bench string) {
		o := Options{
			Design: Design(design), SAGs: sags, CDs: cds, Cores: cores, IssueLanes: lanes,
			WarmupAccesses: warmup, Seed: seed, Instructions: instr, SkipLLC: skipLLC,
			Scheduler: Scheduler(sched), Technology: Technology(tech), Benchmark: bench,
		}
		once, err := o.Canonical()
		if err != nil {
			return
		}
		twice, err := once.Canonical()
		if err != nil {
			t.Fatalf("canonical %+v fails to canonicalize again: %v", once, err)
		}
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("Canonical is not idempotent:\n once  %+v\n twice %+v", once, twice)
		}
	})
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

// TestStreamUsedUpByWarmupFails: a core whose stream has no access
// left for the timed run is a clean error naming that core, not a
// "successful" run of zero instructions.
func TestStreamUsedUpByWarmupFails(t *testing.T) {
	stream := func(n int) trace.Stream {
		accs := make([]trace.Access, n)
		for i := range accs {
			accs[i] = trace.Access{Gap: 3, Addr: uint64(i) * 64}
		}
		return trace.NewSliceStream(accs)
	}
	for _, c := range []struct {
		name string
		o    Options
		want string
	}{
		{"two short streams", Options{Streams: []trace.Stream{stream(1024), stream(1024)}},
			"core 0 has nothing to simulate: its access stream ended within the 65536-access LLC warm-up"},
		{"second stream short", Options{Streams: []trace.Stream{stream(DefaultWarmupAccesses + 1024), stream(1024)}},
			"core 1 has nothing to simulate"},
		{"short stream", Options{Stream: stream(1024)}, "core 0 has nothing to simulate"},
		{"stream as long as the warm-up", Options{Stream: stream(DefaultWarmupAccesses)}, "core 0 has nothing to simulate"},
		{"empty stream without an LLC", Options{Stream: stream(0), SkipLLC: true},
			"core 0 has nothing to simulate: its access stream is empty"},
	} {
		c.o.Design, c.o.Instructions = DesignFgNVM, 2_000
		r, err := Run(c.o)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v (Instructions %d), want one containing %q", c.name, err, r.Instructions, c.want)
		}
	}
	// One access past the warm-up is something to simulate.
	r, err := Run(Options{Design: DesignFgNVM, Stream: stream(DefaultWarmupAccesses + 1), Instructions: 2_000})
	if err != nil || r.Instructions != 4 {
		t.Errorf("stream one access past the warm-up: Instructions %d, err %v; want 4 and no error", r.Instructions, err)
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
	_, err := RunContext(ctx, Options{Benchmark: "mcf", Instructions: 2_000, WarmupAccesses: maxWarmupAccesses})
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
