// Command fgnvm-bench regenerates the paper's evaluation artifacts:
//
//	fgnvm-bench -fig 4          # Figure 4: IPC speedups over baseline
//	fgnvm-bench -fig 5          # Figure 5: relative memory energy
//	fgnvm-bench -table 1        # Table 1: area overheads
//	fgnvm-bench -summary        # headline numbers vs the paper's claims
//	fgnvm-bench -stall-report   # stall attribution across the design points
//	fgnvm-bench -all            # everything
//
// Add -csv for machine-readable output and -n to change the per-run
// instruction budget.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	fgnvm "repro"
	"repro/internal/reliability"
	"repro/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fgnvm-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig     = flag.Int("fig", 0, "figure to regenerate (4 or 5)")
		table   = flag.Int("table", 0, "table to regenerate (1)")
		summary = flag.Bool("summary", false, "print headline numbers vs paper claims")
		reli    = flag.Bool("reliability", false, "print the Section 3.2 soft-error analysis")
		stalls  = flag.Bool("stall-report", false, "print the stall-attribution comparison across design points")
		all     = flag.Bool("all", false, "regenerate everything")
		n       = flag.Uint64("n", 100_000, "instructions per run")
		seed    = flag.Uint64("seed", 1, "workload seed")
		csv     = flag.Bool("csv", false, "CSV output")
		benches = flag.String("benchmarks", "", "comma-separated benchmark subset")
	)
	flag.Parse()

	p := fgnvm.ExperimentParams{Instructions: *n, Seed: *seed}
	if *benches != "" {
		p.Benchmarks = strings.Split(*benches, ",")
	}

	// Every figure and the headline table come from one Summary when
	// more than one of them is asked for, so each distinct run is
	// simulated once.
	var s fgnvm.SummaryResult
	var err error
	switch {
	case *all || *summary:
		s, err = fgnvm.Summary(p)
	case *fig == 4:
		s.Fig4, err = fgnvm.Figure4(p)
	case *fig == 5:
		s.Fig5, err = fgnvm.Figure5(p)
	}
	if err != nil {
		return err
	}
	ran := false
	for _, step := range []struct {
		on    bool
		print func() error
	}{
		{*all || *fig == 4, func() error { return printFigure4(s.Fig4, *csv) }},
		{*all || *fig == 5, func() error { return printFigure5(s.Fig5, *csv) }},
		{*all || *table == 1, func() error { printTable1(*csv); return nil }},
		{*all || *summary, func() error { return printSummary(s) }},
		{*all || *reli, func() error { return printReliability(*csv) }},
		{*all || *stalls, func() error { return printStallStory(p, *csv) }},
	} {
		if step.on {
			if err := step.print(); err != nil {
				return err
			}
			ran = true
		}
	}
	if !ran {
		flag.Usage()
		return fmt.Errorf("nothing selected: pass -fig, -table, -summary or -all")
	}
	return nil
}

func printFigure4(res fgnvm.Figure4Result, csv bool) error {
	t := report.NewTable("benchmark", "FGNVM", "128 Banks", "FGNVM+Multi-Issue")
	for _, r := range res.Rows {
		t.AddRowValues(r.Benchmark, r.FgNVM, r.ManyBanks, r.FgNVMMultiIssue)
	}
	t.AddRowValues("gmean", res.GeoMeanFgNVM, res.GeoMeanManyBanks, res.GeoMeanMultiIssue)
	if csv {
		return t.CSV(os.Stdout)
	}
	fmt.Println("Figure 4: relative speedup over baseline PCM (8x2 FgNVM designs)")
	fmt.Println()
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	chart := report.NewBarChart("Speedup over baseline", "FGNVM", "128Bk", "Multi")
	for _, r := range res.Rows {
		chart.Add(r.Benchmark, r.FgNVM, r.ManyBanks, r.FgNVMMultiIssue)
	}
	return chart.Render(os.Stdout)
}

func printFigure5(res fgnvm.Figure5Result, csv bool) error {
	t := report.NewTable("benchmark", "8x2", "8x8", "8x32", "8x32 Perfect")
	for _, r := range res.Rows {
		t.AddRowValues(r.Benchmark, r.E8x2, r.E8x8, r.E8x32, r.E8x32Perf)
	}
	t.AddRowValues("mean", res.Mean8x2, res.Mean8x8, res.Mean8x32, "")
	if csv {
		return t.CSV(os.Stdout)
	}
	fmt.Println("Figure 5: energy consumption normalized to baseline NVM prototype")
	fmt.Println()
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nmean reductions: %.0f%% (8x2), %.0f%% (8x8), %.0f%% (8x32); paper reports 37%%, 65%%, 73%%\n",
		(1-res.Mean8x2)*100, (1-res.Mean8x8)*100, (1-res.Mean8x32)*100)
	return nil
}

func printTable1(csv bool) {
	rows := fgnvm.Table1()
	t := report.NewTable("component", "avg (8x8)", "max (32x32)", "paper avg", "paper max")
	for _, r := range rows {
		paperAvg, paperMax := "", ""
		if r.PaperAvgUm2 != 0 || r.PaperMaxUm2 != 0 {
			paperAvg = fmt.Sprintf("%.1f", r.PaperAvgUm2)
			paperMax = fmt.Sprintf("%.1f", r.PaperMaxUm2)
		}
		t.AddRow(r.Component,
			fmt.Sprintf("%.1f", r.AvgUm2),
			fmt.Sprintf("%.1f", r.MaxUm2),
			paperAvg, paperMax)
	}
	if csv {
		t.CSV(os.Stdout)
		return
	}
	fmt.Println("Table 1: area overheads in the FgNVM design (µm² unless noted)")
	fmt.Println()
	t.Render(os.Stdout)
}

func printReliability(csv bool) error {
	outs, err := reliability.Compare(reliability.Params{})
	if err != nil {
		return err
	}
	t := report.NewTable("layout", "code", "P(uncorrectable per strike)", "max flips/word")
	for _, o := range outs {
		t.AddRow(o.Layout.String(), o.Code.Name,
			fmt.Sprintf("%.4f", o.PUncorrectable), fmt.Sprint(o.MaxFlipsPerWord))
	}
	if csv {
		return t.CSV(os.Stdout)
	}
	fmt.Println("Section 3.2 soft-error analysis: grouping a cache line's bits")
	fmt.Println("into one tile concentrates multi-bit upsets in one ECC word.")
	fmt.Println()
	return t.Render(os.Stdout)
}

func printStallStory(p fgnvm.ExperimentParams, csv bool) error {
	res, err := fgnvm.StallStory(p)
	if err != nil {
		return err
	}
	t := report.NewTable("design", "IPC", "sag-conflict", "cd-conflict", "bus-conflict", "write-drain", "ctrl-idle", "queued-wait")
	for _, r := range res.Rows {
		s := r.Stalls
		t.AddRowValues(r.Label, r.IPC,
			s.SAGConflict, s.CDConflict, s.BusConflict, s.WriteDrain,
			s.ControllerIdle, s.QueuedWaitCycles)
	}
	if csv {
		return t.CSV(os.Stdout)
	}
	fmt.Printf("Stall attribution on %s (cycles queued requests waited, by blocking cause)\n", res.Benchmark)
	fmt.Println()
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	fmt.Println("Multi-Activation moves SAG/CD-conflict waiting onto the shared bus;")
	fmt.Println("Multi-Issue widens the bus and drains the bus-conflict bucket.")
	return nil
}

func printSummary(s fgnvm.SummaryResult) error {
	fmt.Println("Headline claims vs reproduction")
	fmt.Println()
	t := report.NewTable("claim", "paper", "this reproduction")
	t.AddRow("avg perf improvement (combined)", "56.5 %", fmt.Sprintf("%.1f %%", s.PerfImprovementPct))
	t.AddRow("energy reduction 8x2", "37 %", fmt.Sprintf("%.1f %%", s.Energy8x2Pct))
	t.AddRow("energy reduction 8x8", "65 %", fmt.Sprintf("%.1f %%", s.Energy8x8Pct))
	t.AddRow("energy reduction 8x32", "73 %", fmt.Sprintf("%.1f %%", s.Energy8x32Pct))
	t.AddRow("area overhead", "0.1-0.36 %", "see -table 1")
	return t.Render(os.Stdout)
}
