// Command fgnvm-sim runs one memory-system simulation and prints its
// statistics. It is the single-run front-end to the fgnvm library:
//
//	fgnvm-sim -design fgnvm -sags 8 -cds 2 -bench mcf -n 200000
//	fgnvm-sim -design baseline -trace workload.trc
//	fgnvm-sim -config run.cfg
//	fgnvm-sim -print-config
//
// Config files use NVMain-style "key = value" lines; flags override
// file values. Keys: design, sags, cds, bench, instructions, seed,
// lanes, scheduler (frfcfs|fcfs), skipllc, trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	fgnvm "repro"
	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/report"
	"repro/internal/timing"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fgnvm-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		designName = flag.String("design", "fgnvm", "design: baseline, fgnvm, fgnvm-multiissue, manybanks, salp")
		sags       = flag.Int("sags", 8, "subarray groups")
		cds        = flag.Int("cds", 2, "column divisions")
		bench      = flag.String("bench", "mcf", "benchmark profile (see -list)")
		cores      = flag.Int("cores", 1, "cores running copies of -bench (multi-programmed)")
		mix        = flag.String("mix", "", "comma-separated benchmark mix, one core each (overrides -bench/-cores)")
		instr      = flag.Uint64("n", 200_000, "instructions to simulate")
		seed       = flag.Uint64("seed", 1, "workload seed")
		lanes      = flag.Int("lanes", 0, "issue lanes (0 = design default)")
		sched      = flag.String("scheduler", "frfcfs", "scheduler: frfcfs or fcfs")
		tech       = flag.String("tech", "pcm", "cell technology: pcm or rram")
		skipLLC    = flag.Bool("skipllc", false, "bypass the last-level cache model")
		traceFile  = flag.String("trace", "", "drive the run from a trace file instead of a benchmark")
		cfgFile    = flag.String("config", "", "key=value config file (flags override)")
		printCfg   = flag.Bool("print-config", false, "print the Table 2 setup and exit")
		jsonOut    = flag.Bool("json", false, "print the result as JSON")
		list       = flag.Bool("list", false, "list benchmark profiles and exit")
		traceOut   = flag.String("trace-out", "", "write a Perfetto/Chrome trace-event JSON file (open in ui.perfetto.dev)")
		stallRep   = flag.Bool("stall-report", false, "print the stall-attribution breakdown and per-tile heatmaps")
		noIndex    = flag.Bool("no-sched-index", false, "force the reference scan-everything scheduler (debug; results are identical either way)")
	)
	flag.Parse()

	if *printCfg {
		g := addr.PaperGeometry()
		fmt.Println("Memory system setup (Table 2):")
		fmt.Printf("  geometry : %d channel x %d rank x %d banks, %d rows x %d cols x %dB lines\n",
			g.Channels, g.Ranks, g.Banks, g.Rows, g.Cols, g.LineBytes)
		fmt.Printf("  row      : %d B per logical row (512 B per device x 8 devices)\n", g.RowBytes())
		fmt.Printf("  FgNVM    : %d SAGs x %d CDs (segment = %d B)\n", g.SAGs, g.CDs, g.SegmentBytes())
		fmt.Printf("  timing   : %s\n", timing.Paper())
		fmt.Println("  queues   : 32 read + 32 write entries, FR-FCFS, 64 write drivers/device")
		return nil
	}
	if *list {
		for _, p := range trace.Profiles() {
			fmt.Printf("%-12s APKI=%-4.0f writes=%.0f%% locality=%.0f%% footprint=%dMiB\n",
				p.Name, p.APKI, p.WriteFrac*100, p.Locality*100, p.FootprintBytes>>20)
		}
		return nil
	}

	if *cfgFile != "" {
		f, err := os.Open(*cfgFile)
		if err != nil {
			return err
		}
		kv, err := config.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		// File values become new flag defaults; explicit flags win.
		set := map[string]bool{}
		flag.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
		assign := func(name, val string) error {
			if set[name] || val == "" {
				return nil
			}
			return flag.Set(name, val)
		}
		for _, a := range []struct{ file, flag string }{
			{"design", "design"}, {"sags", "sags"}, {"cds", "cds"},
			{"bench", "bench"}, {"instructions", "n"}, {"seed", "seed"},
			{"lanes", "lanes"}, {"scheduler", "scheduler"},
			{"skipllc", "skipllc"}, {"trace", "trace"},
		} {
			if err := assign(a.flag, kv.String(a.file, "")); err != nil {
				return fmt.Errorf("config key %s: %w", a.file, err)
			}
		}
		if err := kv.CheckUnused(); err != nil {
			return err
		}
	}

	design, err := fgnvm.ParseDesign(*designName)
	if err != nil {
		return err
	}
	var scheduler fgnvm.Scheduler
	switch *sched {
	case "frfcfs":
		scheduler = fgnvm.SchedFRFCFS
	case "fcfs":
		scheduler = fgnvm.SchedFCFS
	default:
		return fmt.Errorf("unknown scheduler %q", *sched)
	}

	opts := fgnvm.Options{
		Design: design, SAGs: *sags, CDs: *cds,
		Instructions: *instr, Seed: *seed, Cores: *cores,
		IssueLanes: *lanes, Scheduler: scheduler, SkipLLC: *skipLLC,
		DisableSchedIndex: *noIndex,
	}
	switch *tech {
	case "pcm":
		opts.Technology = fgnvm.TechPCM
	case "rram":
		opts.Technology = fgnvm.TechRRAM
	default:
		return fmt.Errorf("unknown technology %q", *tech)
	}
	if *mix != "" {
		opts.Mix = strings.Split(*mix, ",")
	}
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		accs, err := trace.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		opts.Stream = trace.NewSliceStream(accs)
		opts.Benchmark = ""
	} else {
		opts.Benchmark = *bench
	}

	var traceW *os.File
	if *stallRep || *traceOut != "" {
		opts.Telemetry = &fgnvm.TelemetryOptions{
			Attribution: *stallRep,
			Occupancy:   *stallRep,
		}
		if *traceOut != "" {
			traceW, err = os.Create(*traceOut)
			if err != nil {
				return err
			}
			defer traceW.Close()
			opts.Telemetry.TraceWriter = traceW
		}
	}

	res, err := fgnvm.Run(opts)
	if err != nil {
		return err
	}
	if traceW != nil {
		if err := traceW.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fgnvm-sim: wrote %d trace events to %s\n", res.TraceEvents, *traceOut)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	printResult(res)
	if *stallRep {
		printStallReport(res)
	}
	return nil
}

// printStallReport renders the attribution breakdown and the per-tile
// occupancy heatmap produced by Options.Telemetry.
func printStallReport(r fgnvm.Result) {
	if r.Stalls == nil {
		fmt.Println("\n(no stall attribution: design is not instrumented)")
		return
	}
	s := r.Stalls
	fmt.Println("\nStall attribution (cycles queued requests spent waiting, by cause):")
	t := report.NewTable("cause", "cycles", "share")
	total := s.Sum()
	addRow := func(name string, v uint64) {
		share := "-"
		if total > 0 {
			share = fmt.Sprintf("%.1f%%", float64(v)/float64(total)*100)
		}
		t.AddRowValues(name, v, share)
	}
	addRow("sag-conflict", s.SAGConflict)
	addRow("cd-conflict", s.CDConflict)
	addRow("bus-conflict", s.BusConflict)
	addRow("write-drain", s.WriteDrain)
	addRow("controller-idle", s.ControllerIdle)
	t.AddRowValues("total queued-wait", s.QueuedWaitCycles, "")
	t.AddRowValues("queue-full rejects", s.QueueFull, "(outside sum)")
	t.Render(os.Stdout)
	if len(r.TileOccupancy) > 0 {
		fmt.Println()
		report.NewHeatmap("Tile occupancy (device busy cycles per SAG x CD tile, all banks):",
			"sag", "cd", r.TileOccupancy).Render(os.Stdout)
	}
}

func printResult(r fgnvm.Result) {
	fmt.Printf("design            %s (%d SAGs x %d CDs)\n", r.Design, r.SAGs, r.CDs)
	fmt.Printf("benchmark         %s (%d core(s))\n", r.Benchmark, r.Cores)
	fmt.Printf("instructions      %d\n", r.Instructions)
	fmt.Printf("memory cycles     %d (%.1f us at 400 MHz)\n", r.Cycles, timing.Paper().ToNS(r.Cycles)/1000)
	fmt.Printf("IPC               %.4f\n", r.IPC)
	fmt.Printf("reads / writes    %d / %d\n", r.Reads, r.Writes)
	fmt.Printf("activations       %d (%d segment hits)\n", r.Activations, r.SegmentHits)
	fmt.Printf("bg-write reads    %d\n", r.BackgroundedRds)
	fmt.Printf("avg read latency  %.1f cycles\n", r.AvgReadLatency)
	fmt.Printf("avg write latency %.1f cycles\n", r.AvgWriteLatency)
	if r.LLCMissRate > 0 {
		fmt.Printf("LLC miss rate     %.1f%%\n", r.LLCMissRate*100)
	}
	fmt.Printf("stall cycles      %d\n", r.StallCycles)
	fmt.Printf("energy            %.1f nJ (read %.1f, write %.1f, background %.1f)\n",
		r.Energy.TotalPJ/1000, r.Energy.ReadPJ/1000, r.Energy.WritePJ/1000, r.Energy.BackgroundPJ/1000)
	fmt.Printf("bits sensed       %d (written %d)\n", r.Energy.BitsSensed, r.Energy.BitsWritten)
}
