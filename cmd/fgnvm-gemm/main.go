// Command fgnvm-gemm runs GEMM/LLM-inference workloads across the
// design matrix with stall attribution:
//
//	fgnvm-gemm -list                      # available presets and tilings
//	fgnvm-gemm -preset gpt2s-ffn-down     # one preset across the designs
//	fgnvm-gemm -preset gpt2s-attn-qkv -heatmap
//	fgnvm-gemm -shape 128x768x768 -accumulate -tiling rowmajor
//	fgnvm-gemm -preset gpt2s-ffn-down -tilings   # compare tiling strategies
//
// The default report runs the workload on baseline, SALP, many-banks
// and FgNVM designs and prints per-design IPC, speedup over baseline,
// and the stall-attribution buckets; -heatmap adds the SAG×CD
// busy-cycle matrix per subdivided design.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	fgnvm "repro"
	"repro/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fgnvm-gemm:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		preset     = flag.String("preset", "", "LLM-layer preset name (see -list)")
		shape      = flag.String("shape", "", "explicit GEMM shape MxKxN, e.g. 128x768x3072")
		word       = flag.Int("word", 0, "element size in bytes (default 2, fp16)")
		accumulate = flag.Bool("accumulate", false, "read-modify-write output (accumulate in place)")
		tiling     = flag.String("tiling", "sag", "tiling strategy: "+strings.Join(fgnvm.WorkloadTilings(), ", "))
		tilings    = flag.Bool("tilings", false, "compare all tiling strategies across the designs")
		designs    = flag.String("designs", "baseline,salp,manybanks,fgnvm", "comma-separated design list")
		cores      = flag.Int("cores", 1, "cores to partition the GEMM across (1-4)")
		sags       = flag.Int("sags", 8, "subarray groups per bank")
		cds        = flag.Int("cds", 2, "column divisions per bank")
		n          = flag.Uint64("n", 100_000, "instructions per run")
		seed       = flag.Uint64("seed", 1, "workload seed")
		csv        = flag.Bool("csv", false, "CSV output")
		heatmap    = flag.Bool("heatmap", false, "print the SAG×CD busy-cycle heatmap per design")
		list       = flag.Bool("list", false, "list presets and tiling strategies")
	)
	flag.Parse()

	if *list {
		printList()
		return nil
	}

	w, err := workloadFromFlags(*preset, *shape, *word, *accumulate, *tiling)
	if err != nil {
		return err
	}
	ds, err := parseDesigns(*designs)
	if err != nil {
		return err
	}
	cfg := runConfig{sags: *sags, cds: *cds, cores: *cores, instr: *n, seed: *seed, occupancy: *heatmap}
	if *tilings {
		return printTilingMatrix(w, ds, cfg, *csv)
	}
	return printDesignMatrix(w, ds, cfg, *csv, *heatmap)
}

func printList() {
	fmt.Println("presets:")
	for _, name := range fgnvm.WorkloadPresets() {
		fmt.Println("  " + name)
	}
	fmt.Println("tilings:")
	for _, name := range fgnvm.WorkloadTilings() {
		fmt.Println("  " + name)
	}
}

func workloadFromFlags(preset, shape string, word int, accumulate bool, tiling string) (fgnvm.WorkloadSpec, error) {
	w := fgnvm.WorkloadSpec{Preset: preset, Tiling: tiling}
	if shape != "" {
		if preset != "" {
			return w, fmt.Errorf("set either -preset or -shape, not both")
		}
		var m, k, n int
		if _, err := fmt.Sscanf(shape, "%dx%dx%d", &m, &k, &n); err != nil {
			return w, fmt.Errorf("bad -shape %q (want MxKxN): %v", shape, err)
		}
		w.M, w.K, w.N = m, k, n
		w.WordBytes = word
		w.Accumulate = accumulate
	} else if preset == "" {
		return w, fmt.Errorf("set -preset or -shape (try -list)")
	}
	// Canonical both validates and makes defaults explicit for display.
	return w.Canonical()
}

func parseDesigns(s string) ([]fgnvm.Design, error) {
	var out []fgnvm.Design
	for _, name := range strings.Split(s, ",") {
		d, err := fgnvm.ParseDesign(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -designs list")
	}
	return out, nil
}

type runConfig struct {
	sags, cds int
	cores     int
	instr     uint64
	seed      uint64
	occupancy bool
}

// runOne executes the workload on one design with stall attribution.
func runOne(w fgnvm.WorkloadSpec, d fgnvm.Design, cfg runConfig) (fgnvm.Result, error) {
	wc := w
	return fgnvm.Run(fgnvm.Options{
		Design:       d,
		SAGs:         cfg.sags,
		CDs:          cfg.cds,
		Cores:        cfg.cores,
		Workload:     &wc,
		Instructions: cfg.instr,
		Seed:         cfg.seed,
		// The lowered stream is the post-cache traffic of a streaming
		// GEMM engine (tile reads/writes at line granularity), so it
		// drives the memory system directly: an LLC in between would
		// absorb the output tile's reuse and hide the placement.
		SkipLLC:   true,
		Telemetry: &fgnvm.TelemetryOptions{Attribution: true, Occupancy: cfg.occupancy},
	})
}

// printDesignMatrix is the default report: one workload, one tiling,
// across the design list, with speedup over the first design.
func printDesignMatrix(w fgnvm.WorkloadSpec, ds []fgnvm.Design, cfg runConfig, csv, heatmap bool) error {
	t := report.NewTable("design", "cycles", "IPC", "speedup",
		"sag-conflict", "cd-conflict", "bus-conflict", "write-drain", "ctrl-idle")
	var base fgnvm.Result
	results := make([]fgnvm.Result, 0, len(ds))
	for i, d := range ds {
		r, err := runOne(w, d, cfg)
		if err != nil {
			return err
		}
		if i == 0 {
			base = r
		}
		results = append(results, r)
		s := r.Stalls
		t.AddRowValues(d.String(), uint64(r.Cycles), r.IPC,
			fmt.Sprintf("%.2fx", r.SpeedupOver(base)),
			s.SAGConflict, s.CDConflict, s.BusConflict, s.WriteDrain, s.ControllerIdle)
	}
	if csv {
		return t.CSV(os.Stdout)
	}
	fmt.Printf("%s: %d cores, %d instructions, %dx%d subdivision\n",
		results[0].Benchmark, results[0].Cores, cfg.instr, cfg.sags, cfg.cds)
	fmt.Println()
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if heatmap {
		for i, r := range results {
			if r.TileOccupancy == nil {
				continue
			}
			fmt.Println()
			hm := report.NewHeatmap(
				fmt.Sprintf("%s: busy cycles per (SAG, CD) tile", ds[i]),
				"SAG", "CD", r.TileOccupancy)
			if err := hm.Render(os.Stdout); err != nil {
				return err
			}
		}
	}
	return nil
}

// printTilingMatrix compares every tiling strategy on every design;
// speedups are against the first design at the same tiling.
func printTilingMatrix(w fgnvm.WorkloadSpec, ds []fgnvm.Design, cfg runConfig, csv bool) error {
	t := report.NewTable("design", "tiling", "cycles", "IPC", "speedup",
		"sag-conflict", "cd-conflict", "bus-conflict", "write-drain", "ctrl-idle")
	bases := map[string]fgnvm.Result{}
	for _, tl := range fgnvm.WorkloadTilings() {
		for i, d := range ds {
			wt := w
			wt.Tiling = tl
			r, err := runOne(wt, d, cfg)
			if err != nil {
				return err
			}
			if i == 0 {
				bases[tl] = r
			}
			s := r.Stalls
			t.AddRowValues(d.String(), tl, uint64(r.Cycles), r.IPC,
				fmt.Sprintf("%.2fx", r.SpeedupOver(bases[tl])),
				s.SAGConflict, s.CDConflict, s.BusConflict, s.WriteDrain, s.ControllerIdle)
		}
	}
	if csv {
		return t.CSV(os.Stdout)
	}
	fmt.Printf("%s: tiling strategies across designs (%d instructions, %dx%d subdivision)\n",
		workloadLabel(w), cfg.instr, cfg.sags, cfg.cds)
	fmt.Println()
	return t.Render(os.Stdout)
}

// workloadLabel is the tiling-independent display name of a workload.
func workloadLabel(w fgnvm.WorkloadSpec) string {
	if w.Preset != "" {
		return w.Preset
	}
	return fmt.Sprintf("gemm-%dx%dx%d", w.M, w.K, w.N)
}
