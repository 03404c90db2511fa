// Differential tests for the run loop as a whole.
//
// fastforward_test.go and schedindex_test.go each switch one
// optimization off against the other left on. These tests switch both
// off at once: the default run loop (fast-forward and indexed
// scheduling on) must stay byte-identical to the plain cycle-by-cycle,
// queue-scanning reference, on the single-channel paper geometry and on
// 2- and 4-channel geometries where the per-channel controller shards
// run side by side. The test names are kept from when they compared a
// windowed parallel engine against the serial loop; the serial loop is
// now the only run loop, and they pin it against its own reference.

package fgnvm

import (
	"bytes"
	"testing"
)

// assertMatchesReference runs o as given and again with fast-forward
// and indexed scheduling both disabled, with full telemetry attached,
// and requires byte-identical Result JSON and trace output.
func assertMatchesReference(t *testing.T, o Options) {
	t.Helper()
	res, tr := runArtifacts(t, o)
	o.DisableFastForward, o.DisableSchedIndex = true, true
	refRes, refTrace := runArtifacts(t, o)
	if !bytes.Equal(res, refRes) {
		t.Errorf("Result diverged from the cycle-by-cycle reference:\n  run: %s\n  ref: %s", res, refRes)
	}
	if !bytes.Equal(tr, refTrace) {
		t.Errorf("trace diverged from the cycle-by-cycle reference (%d vs %d bytes)", len(tr), len(refTrace))
	}
}

// TestParallelEngineDifferential: every benchmark × every design, the
// default run loop vs the reference with both optimizations off.
func TestParallelEngineDifferential(t *testing.T) {
	for _, d := range Designs() {
		t.Run(d.String(), func(t *testing.T) {
			for _, bench := range Benchmarks() {
				t.Run(bench, func(t *testing.T) {
					t.Parallel()
					assertMatchesReference(t, Options{Design: d, SAGs: 8, CDs: 2, Benchmark: bench, Instructions: ffInstr})
				})
			}
		})
	}
}

// TestParallelEngineMultiChannel drives the same differential on 2- and
// 4-channel geometries, one core per channel: the fast-forward probe
// and the ready memo must stay exact when several channel shards hold
// work at once. The single-channel suites never reach that state.
func TestParallelEngineMultiChannel(t *testing.T) {
	for _, channels := range []int{2, 4} {
		for _, d := range []Design{DesignBaseline, DesignFgNVM, DesignFgNVMMultiIssue} {
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
