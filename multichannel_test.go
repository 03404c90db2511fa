// Multi-channel goldens. The paper's configuration is one channel, so
// the figure goldens never exercise the per-channel controller shards
// side by side; these tests pin that path exactly.

package fgnvm

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
)

// multiChannelGeom widens the paper geometry to the given channel
// count; the address space grows, everything else stays Table 2.
func multiChannelGeom(channels int) *addr.Geometry {
	g := addr.PaperGeometry()
	g.Channels = channels
	return &g
}

// TestMultiChannelMixGolden runs a heterogeneous 4-channel Mix on every
// design, three times each. The Result JSON must be byte-identical
// across the runs and match testdata/golden/multichannel_mix.json. The
// golden was produced by the serial run loop; a run loop that reorders
// cross-channel effects shifts AvgReadLatency in the last digits, which
// this catches. CI also runs it under the race detector.
func TestMultiChannelMixGolden(t *testing.T) {
	const runs = 3
	var golden []Result
	for _, d := range Designs() {
		o := Options{
			Design:       d,
			Mix:          []string{"lbm", "mcf", "milc", "GemsFDTD"},
			Seed:         19,
			Instructions: 50_000,
			Geometry:     multiChannelGeom(4),
		}
		var want []byte
		var res Result
		for r := 0; r < runs; r++ {
			got, err := Run(o)
			if err != nil {
				t.Fatalf("%s run %d: %v", d, r, err)
			}
			b, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if r == 0 {
				want, res = b, got
				continue
			}
			if !bytes.Equal(b, want) {
				t.Fatalf("%s run %d: Result JSON diverged from run 0\ngot:  %s\nwant: %s", d, r, b, want)
			}
		}
		golden = append(golden, res)
	}
	checkGolden(t, "testdata/golden/multichannel_mix.json", golden)
}

// TestMultiChannelCycles pins simulated cycles for lbm at 1, 2 and 4
// channels, one core per channel, on every design (the paper's 8×2
// subdivision, 200 k instructions, seed 1).
func TestMultiChannelCycles(t *testing.T) {
	cases := []struct {
		design   Design
		channels int
		cycles   sim.Tick
	}{
		{DesignBaseline, 1, 103757},
		{DesignBaseline, 2, 119042},
		{DesignBaseline, 4, 131115},
		{DesignFgNVM, 1, 86405},
		{DesignFgNVM, 2, 95918},
		{DesignFgNVM, 4, 100551},
		{DesignFgNVMMultiIssue, 1, 72536},
		{DesignFgNVMMultiIssue, 2, 78397},
		{DesignFgNVMMultiIssue, 4, 85276},
		{DesignManyBanks, 1, 76548},
		{DesignManyBanks, 2, 76258},
		{DesignManyBanks, 4, 77323},
		{DesignSALP, 1, 101461},
		{DesignSALP, 2, 117157},
		{DesignSALP, 4, 122181},
		{DesignDRAM, 1, 52672},
		{DesignDRAM, 2, 65095},
		{DesignDRAM, 4, 70378},
	}
	for _, c := range cases {
		r, err := Run(Options{
			Design: c.design, SAGs: 8, CDs: 2, Geometry: multiChannelGeom(c.channels),
			Benchmark: "lbm", Cores: c.channels, Instructions: 200_000, Seed: 1,
		})
		if err != nil {
			t.Fatalf("%s/%dch: %v", c.design, c.channels, err)
		}
		if r.Cycles != c.cycles {
			t.Errorf("%s/%dch: %d cycles, want %d", c.design, c.channels, r.Cycles, c.cycles)
		}
	}
}
