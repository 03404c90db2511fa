// Differential tests for the run loop as a whole.
//
// fastforward_test.go pins fast-forward against cycle-by-cycle
// execution on the single-channel paper geometry. The tests here cover
// what that matrix does not: that attaching the telemetry observers
// leaves the simulated machine untouched, and that fast-forward stays
// exact on 2- and 4-channel geometries, where several per-channel
// controller shards hold work at once. Their names are kept from when
// they compared a windowed parallel engine against the serial loop; the
// serial loop is now the only run loop.

package fgnvm

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestParallelEngineDifferential: every benchmark × every design, a
// bare run vs the same run with stall attribution, occupancy and a
// Perfetto trace attached. Telemetry is pure observation, so once its
// own Result fields are cleared the two Results must be byte-identical.
func TestParallelEngineDifferential(t *testing.T) {
	forEachDesignBenchmark(t, func(t *testing.T, o Options) {
		bare, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		o.Telemetry = &TelemetryOptions{Attribution: true, Occupancy: true, TraceWriter: &buf}
		observed, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		if o.Design != DesignDRAM && (observed.Stalls == nil || observed.TraceEvents == 0) {
			t.Fatalf("telemetry not attached: Stalls=%v TraceEvents=%d", observed.Stalls, observed.TraceEvents)
		}
		observed.Stalls, observed.TileOccupancy, observed.TraceEvents = nil, nil, 0
		bareJSON, _ := json.Marshal(bare)
		observedJSON, _ := json.Marshal(observed)
		if !bytes.Equal(bareJSON, observedJSON) {
			t.Errorf("attaching telemetry moved the simulated machine:\n  bare    : %s\n  observed: %s", bareJSON, observedJSON)
		}
	})
}

// TestParallelEngineMultiChannel drives the fast-forward differential
// on 2- and 4-channel geometries, one core per channel: the
// fast-forward probe must stay exact when several channel shards (or
// DRAM channels) hold work at once. The single-channel suites never
// reach that state.
func TestParallelEngineMultiChannel(t *testing.T) {
	for _, channels := range []int{2, 4} {
		for _, d := range []Design{DesignBaseline, DesignFgNVM, DesignFgNVMMultiIssue, DesignDRAM} {
			for _, bench := range []string{"lbm", "mcf", "milc"} {
				t.Run(bench, func(t *testing.T) {
					t.Parallel()
					assertMatchesReference(t, Options{
						Design: d, SAGs: 8, CDs: 2, Benchmark: bench, Cores: channels,
						Instructions: ffInstr, Geometry: multiChannelGeom(channels),
					})
				})
			}
		}
	}
}
