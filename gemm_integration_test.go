package fgnvm

import (
	"bytes"
	"encoding/json"
	"testing"
)

// runGEMM runs one GEMM workload with full telemetry and returns the
// marshaled Result plus the Perfetto trace bytes. SkipLLC models the
// lowered stream as post-cache traffic of a streaming GEMM engine —
// with the LLC in the path the output-tile reuse is absorbed and the
// placement never reaches memory.
func runGEMM(t *testing.T, w WorkloadSpec, design Design, instr uint64) (Result, []byte, []byte) {
	t.Helper()
	var trace bytes.Buffer
	r, err := Run(Options{
		Design: design, SAGs: 8, CDs: 2,
		Instructions: instr, SkipLLC: true,
		Workload:  &w,
		Telemetry: &TelemetryOptions{Attribution: true, Occupancy: true, TraceWriter: &trace},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return r, b, trace.Bytes()
}

// TestGEMMRunsAreByteDeterministic: for every preset, two runs with
// identical Options produce byte-identical Result JSON and
// byte-identical Perfetto traces. The lowering has no entropy source —
// the stream is a pure function of (Spec, Geometry, Interleave) — so
// any divergence here is a regression in the lowering or the
// telemetry serialization.
func TestGEMMRunsAreByteDeterministic(t *testing.T) {
	for _, name := range WorkloadPresets() {
		name := name
		t.Run(name, func(t *testing.T) {
			w := WorkloadSpec{Preset: name}
			_, json1, trace1 := runGEMM(t, w, DesignFgNVM, 8000)
			_, json2, trace2 := runGEMM(t, w, DesignFgNVM, 8000)
			if !bytes.Equal(json1, json2) {
				t.Errorf("%s: Result JSON differs across identical runs", name)
			}
			if !bytes.Equal(trace1, trace2) {
				t.Errorf("%s: Perfetto trace differs across identical runs", name)
			}
			if len(trace1) == 0 {
				t.Errorf("%s: empty Perfetto trace", name)
			}
		})
	}
}

// TestCDTilingShiftsStallBuckets: the orthogonal half of the story
// whose SAG half TestGoldenGEMM checks (SAG-aligned tiling has fewer
// sag-conflict stalls than row-major) — CD-interleaved tiling drains
// the cd_conflict bucket that SAG-aligned tiling pays, so the two
// strategies trade stall buckets rather than one dominating everywhere.
func TestCDTilingShiftsStallBuckets(t *testing.T) {
	run := func(tiling string) Result {
		r, _, _ := runGEMM(t, WorkloadSpec{Preset: "gpt2s-ffn-down", Tiling: tiling}, DesignFgNVM, 60_000)
		if r.Stalls == nil {
			t.Fatal("Attribution requested but Result.Stalls is nil")
		}
		return r
	}
	sag := run("sag")
	cd := run("cd")
	if cd.Stalls.CDConflict >= sag.Stalls.CDConflict {
		t.Errorf("cd tiling CDConflict = %d, want < sag tiling's %d",
			cd.Stalls.CDConflict, sag.Stalls.CDConflict)
	}
}

// TestGEMMBaselineSuffersMost: the undivided baseline bank serializes
// everything behind a single row buffer, so its SAG-conflict bucket
// (row-buffer conflicts, in baseline terms) dwarfs FgNVM's under the
// same SAG-aligned workload. TestGoldenGEMM checks that FgNVM's IPC is
// higher too.
func TestGEMMBaselineSuffersMost(t *testing.T) {
	w := WorkloadSpec{Preset: "gpt2s-ffn-down"}
	base, _, _ := runGEMM(t, w, DesignBaseline, 60_000)
	fg, _, _ := runGEMM(t, w, DesignFgNVM, 60_000)
	if base.Stalls.SAGConflict <= fg.Stalls.SAGConflict {
		t.Errorf("baseline SAGConflict = %d, want > fgnvm's %d",
			base.Stalls.SAGConflict, fg.Stalls.SAGConflict)
	}
}

// TestGoldenGEMM pins the GEMM case study in BENCH_pr6.json: one
// attention and one FFN preset (a streaming-output and an
// accumulate-in-place projection) across the four-design matrix at
// row-major and SAG-aligned tiling, recorded as exact cycle counts,
// IPC and stall buckets. Before comparing, it checks the placement
// claims themselves, so -update cannot write a state that breaks them:
// on FgNVM, SAG-aligned tiling has strictly fewer sag-conflict stalls
// than row-major, and FgNVM/sag beats baseline/sag on IPC.
func TestGoldenGEMM(t *testing.T) {
	type gemmCase struct {
		Preset string `json:"preset"`
		Design string `json:"design"`
		Tiling string `json:"tiling"`

		Cycles         uint64  `json:"cycles"`
		IPC            float64 `json:"ipc"`
		SAGConflict    uint64  `json:"sag_conflict"`
		CDConflict     uint64  `json:"cd_conflict"`
		BusConflict    uint64  `json:"bus_conflict"`
		WriteDrain     uint64  `json:"write_drain"`
		ControllerIdle uint64  `json:"controller_idle"`
	}
	type gemmReport struct {
		Instructions uint64     `json:"instructions"`
		Seed         uint64     `json:"seed"`
		SAGs         int        `json:"sags"`
		CDs          int        `json:"cds"`
		Cases        []gemmCase `json:"cases"`
	}
	presets := []string{"gpt2s-attn-qkv", "gpt2s-ffn-down"}
	designs := []Design{DesignBaseline, DesignSALP, DesignManyBanks, DesignFgNVM}
	// GEMM streams are unseeded; Seed keeps the file's header as it was
	// first recorded.
	rep := gemmReport{Instructions: 100_000, Seed: 1, SAGs: 8, CDs: 2}
	byKey := map[string]gemmCase{}
	for _, preset := range presets {
		for _, tl := range []string{"rowmajor", "sag"} {
			for _, d := range designs {
				r, _, _ := runGEMM(t, WorkloadSpec{Preset: preset, Tiling: tl}, d, rep.Instructions)
				s := r.Stalls
				c := gemmCase{
					Preset: preset, Design: d.String(), Tiling: tl,
					Cycles: uint64(r.Cycles), IPC: r.IPC,
					SAGConflict: s.SAGConflict, CDConflict: s.CDConflict,
					BusConflict: s.BusConflict, WriteDrain: s.WriteDrain,
					ControllerIdle: s.ControllerIdle,
				}
				rep.Cases = append(rep.Cases, c)
				byKey[preset+"/"+c.Design+"/"+tl] = c
			}
		}
	}
	for _, preset := range presets {
		sag, naive := byKey[preset+"/fgnvm/sag"], byKey[preset+"/fgnvm/rowmajor"]
		base := byKey[preset+"/baseline/sag"]
		if sag.SAGConflict >= naive.SAGConflict {
			t.Fatalf("%s: SAG-aligned tiling did not reduce sag-conflict stalls on fgnvm: sag %d >= rowmajor %d",
				preset, sag.SAGConflict, naive.SAGConflict)
		}
		if sag.IPC <= base.IPC {
			t.Fatalf("%s: fgnvm/sag IPC %.4f, want > baseline/sag's %.4f", preset, sag.IPC, base.IPC)
		}
	}
	checkGolden(t, "BENCH_pr6.json", rep)
}
