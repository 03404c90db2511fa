// Golden-file tests for the paper's evaluation artifacts.
//
// The simulator is deterministic by contract (see determinism_test.go),
// so Figure 4 and Figure 5 at a fixed seed and instruction budget have
// exactly one correct output — committed under testdata/golden/ and
// compared byte-for-byte. Any change to scheduling, timing, energy
// accounting, or the fast-forward path that shifts a single IPC or
// picojoule shows up as a golden diff, reviewed like any other code
// change. Regenerate after an intentional model change with:
//
//	go test -run Golden -update
//
// and commit the updated files alongside the change that explains them.

package fgnvm

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden files with current results")

// goldenInstr sizes the golden runs. Short — the point is pinning
// exact numbers, not statistical fidelity; EXPERIMENTS.md holds the
// full-length figures.
const goldenInstr = 20_000

// checkGolden marshals got and compares it to the file at path,
// rewriting the file under -update.
func checkGolden(t *testing.T, path string, got any) {
	t.Helper()
	j, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	j = append(j, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, j, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run '^%s$' -update` to create)", err, t.Name())
	}
	if !bytes.Equal(j, want) {
		t.Errorf("%s drifted from golden file.\nIf the model change is intentional, regenerate with -update and commit.\ngot:\n%s\nwant:\n%s", path, j, want)
	}
}

// TestGoldenFigure4 pins the per-benchmark IPC speedups of Figure 4
// (FgNVM 8×2, many-banks, FgNVM+multi-issue over the baseline NVM).
func TestGoldenFigure4(t *testing.T) {
	fig, err := Figure4(ExperimentParams{Instructions: goldenInstr})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/golden/figure4.json", fig)
}

// TestGoldenFigure5 pins the relative-energy sweep of Figure 5
// (8×2 / 8×8 / 8×32 FgNVM against the full-row-sensing baseline).
func TestGoldenFigure5(t *testing.T) {
	fig, err := Figure5(ExperimentParams{Instructions: goldenInstr})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "testdata/golden/figure5.json", fig)
}

// TestStallBreakdownGolden pins the stall-attribution buckets and the
// per-tile occupancy matrix. The figure goldens never attach
// telemetry, so without this a change to the bank's stall classifiers
// that keeps every bucket summing to QueuedWaitCycles would pass
// unnoticed. The runs cover every design on every benchmark, the
// per-mode FgNVM ablations, FCFS, and a 2-channel 2-core SALP system.
func TestStallBreakdownGolden(t *testing.T) {
	type entry struct {
		Run           string
		Stalls        *StallBreakdown
		TileOccupancy [][]uint64
	}
	modes := []struct {
		name string
		set  AccessModeSet
	}{
		{"none", AccessModeSet{}},
		{"BW", AccessModeSet{BackgroundedWrites: true}},
		{"MA", AccessModeSet{MultiActivation: true}},
		{"PA", AccessModeSet{PartialActivation: true}},
		{"PA+BW", AccessModeSet{PartialActivation: true, BackgroundedWrites: true}},
	}
	tel := &TelemetryOptions{Attribution: true, Occupancy: true}
	var got []entry
	run := func(name string, o Options) {
		o.Instructions = goldenInstr
		o.Telemetry = tel
		res, err := Run(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got = append(got, entry{name, res.Stalls, res.TileOccupancy})
	}
	for _, b := range Benchmarks() {
		for _, d := range Designs() {
			run(b+"/"+d.String(), Options{Design: d, Benchmark: b})
		}
		for _, m := range modes {
			set := m.set
			run(b+"/FgNVM/modes="+m.name, Options{Design: DesignFgNVM, Benchmark: b, Modes: &set})
		}
		run(b+"/FgNVM/FCFS", Options{Design: DesignFgNVM, Benchmark: b, Scheduler: SchedFCFS})
		run(b+"/SALP/2ch-2core", Options{Design: DesignSALP, Benchmark: b, Cores: 2, Geometry: multiChannelGeom(2)})
	}
	checkGolden(t, "testdata/golden/stalls.json", got)
}
