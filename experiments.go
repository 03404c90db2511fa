// Experiment harnesses: one function per table/figure of the paper's
// evaluation section. These are used by cmd/fgnvm-bench and by the
// benchmarks in bench_test.go, so "regenerate Figure 4" is a single
// call everywhere.

package fgnvm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/area"
	"repro/internal/stats"
)

// ExperimentParams tunes the evaluation runs. The zero value reproduces
// the paper's setup at a simulation length practical for a laptop.
type ExperimentParams struct {
	// Instructions per benchmark run (default 100 000).
	Instructions uint64
	// Seed for the workload generators (default 1).
	Seed uint64
	// Benchmarks to evaluate; empty means the full Figure 4 set.
	Benchmarks []string
	// Parallel bounds the runs simulated concurrently (default:
	// GOMAXPROCS). Each simulation is single-threaded and
	// deterministic; parallelism is across independent runs, so
	// results are identical at any width.
	Parallel int
}

// Canonical validates p and returns it with its defaults made
// explicit: 100 000 instructions, seed 1 and, when Benchmarks is empty,
// the full Figure 4 set. Unknown benchmark names are an error that
// names every one of them. Parallel is execution-only and passes
// through unchanged.
func (p ExperimentParams) Canonical() (ExperimentParams, error) {
	if p.Instructions == 0 {
		p.Instructions = 100_000
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if len(p.Benchmarks) == 0 {
		p.Benchmarks = Benchmarks()
	}
	var errs []error
	for _, b := range p.Benchmarks {
		errs = append(errs, checkBenchmark(b))
	}
	if err := errors.Join(errs...); err != nil {
		return ExperimentParams{}, err
	}
	return p, nil
}

// workers resolves a Parallel knob for n independent jobs: 0 means
// GOMAXPROCS, and the result is capped at n and at least 1.
func workers(parallel, n int) int {
	if parallel == 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return max(1, min(parallel, n))
}

// forEachN runs fn(0..n-1) on a bounded pool of workers. Workers
// write into caller-preallocated slots, so output order is
// deterministic regardless of scheduling. All job errors are joined in
// index order, so a multi-job failure reports every failing job rather
// than only the first. A panicking job becomes an error naming its
// index; the other jobs still run, so no library entry point can take
// its caller down. Cancelling ctx stops dispatching further work; its
// error is included in the aggregate.
func forEachN(ctx context.Context, n, workers int, fn func(i int) error) error {
	jobs := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = runJob(i, fn)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	return errors.Join(append(errs, ctx.Err())...)
}

// runJob runs job i of a forEachN pool, recovering a panic into an
// error.
func runJob(i int, fn func(i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("job %d panicked: %v", i, v)
		}
	}()
	return fn(i)
}

// runAll is the one run path of the figures, Summary, the stall story
// and sweeps: it simulates the runs on a pool of width workers, one run
// per job, and returns their Results in order and every failure,
// labelled by label(i) ("figure4 mcf baseline: ..."), in one joined
// error. Labels are only formatted for failed runs.
func runAll(ctx context.Context, width int, runs []Options, label func(i int) string) ([]Result, error) {
	res := make([]Result, len(runs))
	err := forEachN(ctx, len(runs), width, func(i int) (err error) {
		if res[i], err = RunContext(ctx, runs[i]); err != nil {
			return fmt.Errorf("%s: %w", label(i), err)
		}
		return nil
	})
	return res, err
}

// The design points of Figures 4 and 5, indexing a benchmark's row of a
// paperTable. Both figures normalize to the baseline and both show 8×2
// FgNVM, so together they simulate six points per benchmark, not eight.
const (
	pointBaseline = iota
	pointFgNVM    // 8×2
	pointManyBanks
	pointMultiIssue
	pointFgNVM8x8
	pointFgNVM8x32
)

// paperPoints labels and configures each design point; all have 8 SAGs.
var paperPoints = [...]struct {
	label  string
	design Design
	cds    int
}{
	{"baseline", DesignBaseline, 2},
	{"fgnvm", DesignFgNVM, 2},
	{"manybanks", DesignManyBanks, 2},
	{"multiissue", DesignFgNVMMultiIssue, 2},
	{"8x8", DesignFgNVM, 8},
	{"8x32", DesignFgNVM, 32},
}

// paperTable runs the given points of every benchmark of p and returns
// one row of Results per benchmark, indexed by point.
func paperTable(ctx context.Context, kind string, p ExperimentParams, points ...int) ([][len(paperPoints)]Result, error) {
	p, err := p.Canonical()
	if err != nil {
		return nil, err
	}
	var runs []Options
	for _, pt := range points {
		for _, bench := range p.Benchmarks {
			runs = append(runs, Options{
				Design: paperPoints[pt].design, SAGs: 8, CDs: paperPoints[pt].cds,
				Benchmark: bench, Instructions: p.Instructions, Seed: p.Seed,
			})
		}
	}
	n := len(p.Benchmarks)
	label := func(i int) string {
		return fmt.Sprintf("%s %s %s", kind, p.Benchmarks[i%n], paperPoints[points[i/n]].label)
	}
	res, err := runAll(ctx, workers(p.Parallel, len(runs)), runs, label)
	table := make([][len(paperPoints)]Result, n)
	for i, r := range res {
		table[i%n][points[i/n]] = r
	}
	return table, err
}

// Figure4Row is one benchmark's bar group in Figure 4: IPC speedups
// over the baseline NVM for the three evaluated systems (8×2 FgNVM,
// the idealized 128-banks memory, and FgNVM with multi-issue).
type Figure4Row struct {
	Benchmark       string
	BaselineIPC     float64
	FgNVM           float64 // speedup over baseline
	ManyBanks       float64
	FgNVMMultiIssue float64
}

// Figure4Result is the full figure: per-benchmark rows plus geometric
// means (the paper's summary statistic).
type Figure4Result struct {
	Rows              []Figure4Row
	GeoMeanFgNVM      float64
	GeoMeanManyBanks  float64
	GeoMeanMultiIssue float64
}

// Figure4 reproduces the performance comparison of Figure 4: 8×2 FgNVM,
// a 128-bank memory (8 banks × 8 SAGs × 2 CDs worth of independent
// units), and 8×2 FgNVM with the augmented multi-issue FR-FCFS, all
// normalized to the baseline NVM prototype.
func Figure4(p ExperimentParams) (Figure4Result, error) {
	return Figure4Context(context.Background(), p)
}

// Figure4Context is Figure4 with cancellation: ctx aborts in-flight
// simulations and stops dispatching further runs.
func Figure4Context(ctx context.Context, p ExperimentParams) (Figure4Result, error) {
	table, err := paperTable(ctx, "figure4", p, pointBaseline, pointFgNVM, pointManyBanks, pointMultiIssue)
	if err != nil {
		return Figure4Result{}, err
	}
	return figure4From(table)
}

// figure4From builds Figure 4 from a paperTable holding its points.
func figure4From(table [][len(paperPoints)]Result) (Figure4Result, error) {
	out := Figure4Result{Rows: make([]Figure4Row, len(table))}
	var fg, mb, mi []float64
	for i, r := range table {
		base := r[pointBaseline]
		row := Figure4Row{
			Benchmark:       base.Benchmark,
			BaselineIPC:     base.IPC,
			FgNVM:           r[pointFgNVM].SpeedupOver(base),
			ManyBanks:       r[pointManyBanks].SpeedupOver(base),
			FgNVMMultiIssue: r[pointMultiIssue].SpeedupOver(base),
		}
		out.Rows[i] = row
		fg = append(fg, row.FgNVM)
		mb = append(mb, row.ManyBanks)
		mi = append(mi, row.FgNVMMultiIssue)
	}
	var err error
	if out.GeoMeanFgNVM, err = stats.GeoMean(fg); err != nil {
		return out, err
	}
	if out.GeoMeanManyBanks, err = stats.GeoMean(mb); err != nil {
		return out, err
	}
	if out.GeoMeanMultiIssue, err = stats.GeoMean(mi); err != nil {
		return out, err
	}
	return out, nil
}

// Figure5Row is one benchmark's bar group in Figure 5: total memory
// energy relative to the baseline for the CD sweep, plus the "perfect"
// scaling point (sensing energy ideally divided by the CD count, with
// no write or background penalty).
type Figure5Row struct {
	Benchmark string
	E8x2      float64 // relative energy, 8 SAGs x 2 CDs
	E8x8      float64
	E8x32     float64
	E8x32Perf float64 // ideal: baseline sensing energy / 32
}

// Figure5Result is the full figure with arithmetic-mean reductions
// (the paper reports average reductions of 37 %, 65 % and 73 %).
type Figure5Result struct {
	Rows                       []Figure5Row
	Mean8x2, Mean8x8, Mean8x32 float64 // mean relative energy
}

// Figure5 reproduces the energy comparison of Figure 5: FgNVM designs
// with 2, 8, and 32 column divisions (8 SAGs each) normalized to the
// baseline that senses the full row buffer on every activation.
func Figure5(p ExperimentParams) (Figure5Result, error) {
	return Figure5Context(context.Background(), p)
}

// Figure5Context is Figure5 with cancellation: ctx aborts in-flight
// simulations and stops dispatching further runs.
func Figure5Context(ctx context.Context, p ExperimentParams) (Figure5Result, error) {
	table, err := paperTable(ctx, "figure5", p, pointBaseline, pointFgNVM, pointFgNVM8x8, pointFgNVM8x32)
	if err != nil {
		return Figure5Result{}, err
	}
	return figure5From(table), nil
}

// figure5From builds Figure 5 from a paperTable holding its points.
func figure5From(table [][len(paperPoints)]Result) Figure5Result {
	out := Figure5Result{Rows: make([]Figure5Row, len(table))}
	var e2, e8, e32 []float64
	for i, r := range table {
		base := r[pointBaseline]
		row := Figure5Row{
			Benchmark: base.Benchmark,
			E8x2:      r[pointFgNVM].RelativeEnergy(base),
			E8x8:      r[pointFgNVM8x8].RelativeEnergy(base),
			E8x32:     r[pointFgNVM8x32].RelativeEnergy(base),
		}
		// "8x32 Perfect": the ideal factor-of-two-per-doubling scaling
		// the paper describes — sensing energy divided by the CD count,
		// without the write-energy floor or background power.
		if base.Energy.TotalPJ > 0 {
			row.E8x32Perf = base.Energy.ReadPJ / 32 / base.Energy.TotalPJ
		}
		out.Rows[i] = row
		e2 = append(e2, row.E8x2)
		e8 = append(e8, row.E8x8)
		e32 = append(e32, row.E8x32)
	}
	out.Mean8x2 = stats.Mean(e2)
	out.Mean8x8 = stats.Mean(e8)
	out.Mean8x32 = stats.Mean(e32)
	return out
}

// Table1Row is one component row of the area-overhead table.
type Table1Row struct {
	Component   string
	AvgUm2      float64 // 8×8 FgNVM
	MaxUm2      float64 // 32×32 FgNVM
	PaperAvgUm2 float64 // the published value, for side-by-side output
	PaperMaxUm2 float64
}

// Table1 reproduces the area-overhead summary (Section 5.1) from the
// analytic model in internal/area, alongside the published values.
func Table1() []Table1Row {
	avg := area.PaperAverage()
	max := area.PaperMaximum()
	return []Table1Row{
		{Component: "Row Decoder (delta %)", AvgUm2: avg.RowDecoderDeltaPct, MaxUm2: max.RowDecoderDeltaPct},
		{Component: "Row Latches", AvgUm2: avg.RowLatchesUm2, MaxUm2: max.RowLatchesUm2, PaperAvgUm2: 2325, PaperMaxUm2: 9333},
		{Component: "CSL Latches", AvgUm2: avg.CSLLatchesUm2, MaxUm2: max.CSLLatchesUm2, PaperAvgUm2: 636.3, PaperMaxUm2: 4242},
		{Component: "LY-SEL Lines", AvgUm2: avg.YSelLinesUm2, MaxUm2: max.YSelLinesUm2, PaperAvgUm2: 0, PaperMaxUm2: 0.1e6},
		{Component: "Total", AvgUm2: avg.TotalUm2, MaxUm2: max.TotalUm2, PaperAvgUm2: 2961, PaperMaxUm2: 0.11e6},
	}
}

// SummaryResult aggregates the paper's headline claims against the
// reproduction: average combined performance improvement (the paper
// reports 56.5 %) and the energy reductions (37/65/73 %).
type SummaryResult struct {
	Fig4 Figure4Result
	Fig5 Figure5Result

	// PerfImprovementPct is the geometric-mean improvement of the best
	// combined design (FgNVM + Multi-Issue) over the baseline.
	PerfImprovementPct float64
	// EnergyReduction percentages for the three CD sweeps.
	Energy8x2Pct, Energy8x8Pct, Energy8x32Pct float64
}

// Summary runs both figures and derives the headline numbers.
func Summary(p ExperimentParams) (SummaryResult, error) {
	return SummaryContext(context.Background(), p)
}

// SummaryContext is Summary with cancellation. It simulates the runs
// the two figures share once: six per benchmark, where Figure 4 and
// Figure 5 run four each.
func SummaryContext(ctx context.Context, p ExperimentParams) (SummaryResult, error) {
	var s SummaryResult
	table, err := paperTable(ctx, "summary", p, pointBaseline, pointFgNVM, pointManyBanks, pointMultiIssue, pointFgNVM8x8, pointFgNVM8x32)
	if err != nil {
		return s, err
	}
	if s.Fig4, err = figure4From(table); err != nil {
		return s, err
	}
	s.Fig5 = figure5From(table)
	s.PerfImprovementPct = (s.Fig4.GeoMeanMultiIssue - 1) * 100
	s.Energy8x2Pct = (1 - s.Fig5.Mean8x2) * 100
	s.Energy8x8Pct = (1 - s.Fig5.Mean8x8) * 100
	s.Energy8x32Pct = (1 - s.Fig5.Mean8x32) * 100
	return s, nil
}

// StallStoryRow is one design point of the stall-attribution
// experiment: where queued requests spent their waiting cycles under
// that design, plus its IPC for context.
type StallStoryRow struct {
	Label  string
	Design Design
	IPC    float64
	Stalls StallBreakdown
}

// StallStoryResult is the full experiment: the Section 4 serialization
// story told by the attribution engine on one write-heavy benchmark.
type StallStoryResult struct {
	Benchmark string
	Rows      []StallStoryRow
}

// StallStory runs the stall-attribution experiment on a write-heavy
// benchmark (default lbm): the baseline bank, 8×2 FgNVM with
// Multi-Activation ablated, full 8×2 FgNVM, and FgNVM with Multi-Issue.
// The expected mechanism (asserted by the regression tests, reported in
// EXPERIMENTS.md): Multi-Activation moves stalls out of the SAG/CD
// conflict buckets into bus-conflict, and Multi-Issue drains the
// bus-conflict bucket.
func StallStory(p ExperimentParams) (StallStoryResult, error) {
	return StallStoryContext(context.Background(), p)
}

// StallStoryContext is StallStory with cancellation. Only the first
// entry of p.Benchmarks is used (default "lbm", the write-heaviest
// profile, where write-induced serialization is starkest).
func StallStoryContext(ctx context.Context, p ExperimentParams) (StallStoryResult, error) {
	if len(p.Benchmarks) == 0 {
		p.Benchmarks = []string{"lbm"}
	}
	p, err := p.Canonical()
	if err != nil {
		return StallStoryResult{}, err
	}
	out := StallStoryResult{Benchmark: p.Benchmarks[0]}
	noMA := &AccessModeSet{PartialActivation: true, BackgroundedWrites: true}
	var runs []Options
	for _, pt := range []struct {
		label  string
		design Design
		modes  *AccessModeSet
	}{
		{"baseline", DesignBaseline, nil},
		{"fgnvm-noMA", DesignFgNVM, noMA},
		{"fgnvm", DesignFgNVM, nil},
		{"fgnvm-multiissue", DesignFgNVMMultiIssue, nil},
	} {
		out.Rows = append(out.Rows, StallStoryRow{Label: pt.label, Design: pt.design})
		runs = append(runs, Options{
			Design: pt.design, SAGs: 8, CDs: 2, Modes: pt.modes,
			Benchmark: out.Benchmark, Instructions: p.Instructions, Seed: p.Seed,
			Telemetry: &TelemetryOptions{Attribution: true},
		})
	}
	res, err := runAll(ctx, workers(p.Parallel, len(runs)), runs, func(i int) string {
		return "stallstory " + out.Rows[i].Label
	})
	for i, r := range res {
		out.Rows[i].IPC = r.IPC
		if r.Stalls != nil {
			out.Rows[i].Stalls = *r.Stalls
		}
	}
	return out, err
}
