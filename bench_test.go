// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, plus the ablations called out in DESIGN.md.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark reports the paper's metric via b.ReportMetric
// (speedup-x for Figure 4 bars, relative-energy for Figure 5 bars), so
// the -bench output IS the reproduced series. cmd/fgnvm-bench prints
// the same data as formatted tables.
package fgnvm

import (
	"fmt"
	"testing"

	"repro/internal/area"
	"repro/internal/telemetry"
)

// benchInstr keeps individual benchmark iterations fast; the shapes are
// stable from ~20k instructions on.
const benchInstr = 20_000

func runOrFatal(b *testing.B, o Options) Result {
	b.Helper()
	o.Instructions = benchInstr
	r, err := Run(o)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable1 regenerates the area-overhead table (Section 5.1).
func BenchmarkTable1(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		avg := area.PaperAverage()
		max := area.PaperMaximum()
		total = avg.TotalUm2 + max.TotalUm2
	}
	b.ReportMetric(area.PaperAverage().TotalUm2, "avg-um2")
	b.ReportMetric(area.PaperMaximum().TotalUm2, "max-um2")
	_ = total
}

// BenchmarkFigure4 regenerates the IPC-speedup bars of Figure 4: for
// each benchmark, the three systems' speedups over the baseline.
func BenchmarkFigure4(b *testing.B) {
	for _, bench := range Benchmarks() {
		bench := bench
		b.Run(bench, func(b *testing.B) {
			var base, fg, mb, mi Result
			for i := 0; i < b.N; i++ {
				base = runOrFatal(b, Options{Design: DesignBaseline, Benchmark: bench})
				fg = runOrFatal(b, Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: bench})
				mb = runOrFatal(b, Options{Design: DesignManyBanks, SAGs: 8, CDs: 2, Benchmark: bench})
				mi = runOrFatal(b, Options{Design: DesignFgNVMMultiIssue, SAGs: 8, CDs: 2, Benchmark: bench})
			}
			b.ReportMetric(fg.SpeedupOver(base), "fgnvm-x")
			b.ReportMetric(mb.SpeedupOver(base), "128banks-x")
			b.ReportMetric(mi.SpeedupOver(base), "multiissue-x")
		})
	}
}

// BenchmarkFigure5 regenerates the relative-energy bars of Figure 5:
// the CD sweep normalized to the baseline.
func BenchmarkFigure5(b *testing.B) {
	for _, bench := range Benchmarks() {
		bench := bench
		b.Run(bench, func(b *testing.B) {
			var base, e2, e8, e32 Result
			for i := 0; i < b.N; i++ {
				base = runOrFatal(b, Options{Design: DesignBaseline, Benchmark: bench})
				e2 = runOrFatal(b, Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: bench})
				e8 = runOrFatal(b, Options{Design: DesignFgNVM, SAGs: 8, CDs: 8, Benchmark: bench})
				e32 = runOrFatal(b, Options{Design: DesignFgNVM, SAGs: 8, CDs: 32, Benchmark: bench})
			}
			b.ReportMetric(e2.RelativeEnergy(base), "8x2-rel")
			b.ReportMetric(e8.RelativeEnergy(base), "8x8-rel")
			b.ReportMetric(e32.RelativeEnergy(base), "8x32-rel")
			b.ReportMetric(base.Energy.ReadPJ/32/base.Energy.TotalPJ, "8x32perfect-rel")
		})
	}
}

// BenchmarkAblationGrid sweeps the SAG x CD design space on one
// representative benchmark (A1 in DESIGN.md).
func BenchmarkAblationGrid(b *testing.B) {
	for _, sags := range []int{2, 8, 32} {
		for _, cds := range []int{1, 2, 8, 32} {
			name := fmt.Sprintf("%dx%d", sags, cds)
			sags, cds := sags, cds
			b.Run(name, func(b *testing.B) {
				var base, r Result
				for i := 0; i < b.N; i++ {
					base = runOrFatal(b, Options{Design: DesignBaseline, Benchmark: "mcf"})
					r = runOrFatal(b, Options{Design: DesignFgNVM, SAGs: sags, CDs: cds, Benchmark: "mcf"})
				}
				b.ReportMetric(r.SpeedupOver(base), "speedup-x")
				b.ReportMetric(r.RelativeEnergy(base), "energy-rel")
			})
		}
	}
}

// BenchmarkAblationModes turns the three access modes off one at a time
// (A2 in DESIGN.md) by comparing design points that isolate them.
func BenchmarkAblationModes(b *testing.B) {
	cases := []struct {
		name string
		opts Options
	}{
		{"all-modes", Options{Design: DesignFgNVM, SAGs: 8, CDs: 8}},
		{"partial-only", Options{Design: DesignFgNVM, SAGs: 8, CDs: 8,
			Modes: &AccessModeSet{PartialActivation: true}}},
		{"multi-only", Options{Design: DesignFgNVM, SAGs: 8, CDs: 8,
			Modes: &AccessModeSet{MultiActivation: true}}},
		{"bgwrites-only", Options{Design: DesignFgNVM, SAGs: 8, CDs: 8,
			Modes: &AccessModeSet{BackgroundedWrites: true}}},
		{"salp-1d", Options{Design: DesignSALP, SAGs: 8}},
		{"baseline-none", Options{Design: DesignBaseline}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var base, r Result
			for i := 0; i < b.N; i++ {
				base = runOrFatal(b, Options{Design: DesignBaseline, Benchmark: "mcf"})
				o := c.opts
				o.Benchmark = "mcf"
				r = runOrFatal(b, o)
			}
			b.ReportMetric(r.SpeedupOver(base), "speedup-x")
			b.ReportMetric(r.RelativeEnergy(base), "energy-rel")
		})
	}
}

// BenchmarkAblationSched compares scheduler policies and issue widths
// (A3 in DESIGN.md).
func BenchmarkAblationSched(b *testing.B) {
	cases := []struct {
		name string
		opts Options
	}{
		{"fcfs", Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Scheduler: SchedFCFS}},
		{"frfcfs", Options{Design: DesignFgNVM, SAGs: 8, CDs: 2}},
		{"frfcfs-2lane", Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, IssueLanes: 2}},
		{"frfcfs-4lane", Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, IssueLanes: 4}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var r Result
			for i := 0; i < b.N; i++ {
				o := c.opts
				o.Benchmark = "mcf"
				r = runOrFatal(b, o)
			}
			b.ReportMetric(r.IPC, "ipc")
		})
	}
}

// BenchmarkAblationTileSize sweeps the device-model tile geometry over
// the range the paper quotes for real devices (512×512 to 4K×4K cells),
// showing the latency/energy trade the array designer faces: bigger
// tiles amortize periphery area but lengthen wordlines (quadratic RC)
// and bitlines (sense time, read energy).
func BenchmarkAblationTileSize(b *testing.B) {
	for _, side := range []int{512, 1024, 2048, 4096} {
		side := side
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			var r Result
			for i := 0; i < b.N; i++ {
				r = runOrFatal(b, Options{
					Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: "mcf",
					Device: &DeviceParams{TileRows: side, TileCols: side},
				})
			}
			b.ReportMetric(r.IPC, "ipc")
			b.ReportMetric(r.Energy.TotalPJ/float64(r.Reads+r.Writes), "pJ/access")
		})
	}
}

// BenchmarkAblationMultiCore measures how FgNVM's advantage scales with
// memory contention: N cores running mcf copies against the shared
// memory system (the CMP extension of the paper's single-core setup).
func BenchmarkAblationMultiCore(b *testing.B) {
	for _, cores := range []int{1, 2, 4} {
		cores := cores
		b.Run(fmt.Sprintf("%dcore", cores), func(b *testing.B) {
			var base, fg Result
			for i := 0; i < b.N; i++ {
				base = runOrFatal(b, Options{Design: DesignBaseline, Benchmark: "mcf", Cores: cores})
				fg = runOrFatal(b, Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: "mcf", Cores: cores})
			}
			b.ReportMetric(fg.SpeedupOver(base), "speedup-x")
			b.ReportMetric(base.IPC, "base-ipc")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed:
// simulated memory cycles per wall-clock second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		r := runOrFatal(b, Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: "milc"})
		cycles += uint64(r.Cycles)
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkRunWarmup times one paper-config run (FgNVM 8x2 on mcf,
// 200 k instructions) two ways: cold, with the warm-up memo cleared
// before each run so the LLC warms from scratch, and memo, restoring
// the memoized warm-up as every repeat of a warm-up key does.
func BenchmarkRunWarmup(b *testing.B) {
	o := Options{Design: DesignFgNVM, Benchmark: "mcf"}
	for _, cold := range []bool{true, false} {
		name := "memo"
		if cold {
			name = "cold"
		}
		b.Run(name, func(b *testing.B) {
			resetWarmMemo()
			if _, err := Run(o); err != nil { // fills the memo
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					b.StopTimer()
					resetWarmMemo()
					b.StartTimer()
				}
				if _, err := Run(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTechnology compares PCM and RRAM cells on the same
// FgNVM organization — the paper's techniques apply to both (§2).
func BenchmarkAblationTechnology(b *testing.B) {
	for _, tc := range []struct {
		name string
		tech Technology
	}{{"pcm", TechPCM}, {"rram", TechRRAM}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var r Result
			for i := 0; i < b.N; i++ {
				r = runOrFatal(b, Options{Design: DesignFgNVM, SAGs: 8, CDs: 2,
					Benchmark: "lbm", Technology: tc.tech})
			}
			b.ReportMetric(r.IPC, "ipc")
			b.ReportMetric(r.Energy.TotalPJ/float64(r.Reads+r.Writes), "pJ/access")
		})
	}
}

// eventLog records a run's command and request events in order.
type eventLog struct {
	cmds []telemetry.Command
	reqs []telemetry.RequestEvent
	// order holds one entry per event: true for a command.
	order []bool
}

func (l *eventLog) Command(ev telemetry.Command) {
	l.cmds = append(l.cmds, ev)
	l.order = append(l.order, true)
}

func (l *eventLog) Request(ev telemetry.RequestEvent) {
	l.reqs = append(l.reqs, ev)
	l.order = append(l.order, false)
}

// BenchmarkTraceReplay times the Perfetto encoder alone: it records
// the command and request events of one telemetry-workload run (FgNVM
// 8×2 on lbm, 100 k instructions) and replays them into a fresh Trace
// per iteration, reporting ns per event. Each request event encodes
// one or two trace events; the figure divides by the trace's count.
func BenchmarkTraceReplay(b *testing.B) {
	o := Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: "lbm", Instructions: 100_000}
	log := &eventLog{}
	o.Telemetry = &TelemetryOptions{Sink: log}
	if _, err := Run(o); err != nil {
		b.Fatal(err)
	}
	c, err := o.Canonical()
	if err != nil {
		b.Fatal(err)
	}
	geom, _, err := c.resolve()
	if err != nil {
		b.Fatal(err)
	}
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := telemetry.NewTrace(geom, c.IssueLanes)
		ci, ri := 0, 0
		for _, cmd := range log.order {
			if cmd {
				tr.Command(log.cmds[ci])
				ci++
			} else {
				tr.Request(log.reqs[ri])
				ri++
			}
		}
		events += tr.Events()
		tr.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
