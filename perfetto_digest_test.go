package fgnvm

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestPerfettoDigests pins the exact Perfetto bytes of a handful of
// traced runs: FgNVM, SALP, FgNVM Multi-Issue and many-banks, one
// 2-core run and one 2-channel run, each with attribution and occupancy attached as the
// benchmark's telemetry workload does. The trace encoder and the stall
// attribution path are free to change how they work, never what they
// write; any change to these digests is a change to the emitted trace.
func TestPerfettoDigests(t *testing.T) {
	const n = 20_000
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"lbm/fgnvm", Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: "lbm", Instructions: n},
			"4804242209acb98cfc545dd51f48f367cf90b11dcfc2ea4a2708b0d1c794fcc6"},
		{"mcf/salp", Options{Design: DesignSALP, SAGs: 8, Benchmark: "mcf", Instructions: n},
			"c518bcd4f437468abb46939b471c607793fbad216dafd039032b11b34ebcac04"},
		{"omnetpp/multi-issue", Options{Design: DesignFgNVMMultiIssue, SAGs: 8, CDs: 2, IssueLanes: 4, Benchmark: "omnetpp", Instructions: n},
			"0d4aaf73974c50fabce4c36e51392c1ab054d1263e881ccb3563689df32527ac"},
		{"milc/many-banks", Options{Design: DesignManyBanks, SAGs: 8, CDs: 2, Benchmark: "milc", Instructions: n},
			"025d24d068dbd2d0614ee1eb45b854391f64919f0b5d4fcd268d6bec0540db52"},
		{"mcf+lbm/2-core", Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Mix: []string{"mcf", "lbm"}, Instructions: n},
			"d3cf87a6e85e9d6d1e4d4883b630869b81287a45d9e94a056baa7916dbbadda4"},
		{"lbm/2-channel", Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: "lbm", Instructions: n, Geometry: multiChannelGeom(2)},
			"d28d96c60ecf1a0a86712af2ddd947f58f2e67b2d48151ad5b92c13eb73abad6"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := sha256.New()
			o := c.opts
			o.Telemetry = &TelemetryOptions{Attribution: true, Occupancy: true, TraceWriter: h}
			r, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if r.TraceEvents == 0 {
				t.Fatal("run traced no events")
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("trace sha256 = %s, want %s", got, c.want)
			}
		})
	}
}
