// Differential and property tests for the idle-cycle fast-forward.
//
// The run loop's fast-forward (fgnvm.go) claims to be exact: jumping
// over a provably-idle window and batch-crediting the per-cycle
// accounting must leave every observable output byte-identical to the
// cycle-by-cycle execution. These tests pin that claim across the full
// benchmark × design matrix — including the telemetry stall buckets
// and the exported Perfetto trace — and add the structural properties
// the optimization must not disturb (a 1×1 FgNVM degenerates to the
// baseline bank; cancellation is honored mid-jump).

package fgnvm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/trace"
)

// ffInstr sizes the differential runs: long enough that every design
// fast-forwards through real write drains (lbm backgrounds hundreds of
// writes at this length), short enough that the 6×12 matrix stays in
// `go test` territory.
const ffInstr = 20_000

// runArtifacts runs one simulation with full telemetry attached and
// returns every observable output: the marshaled Result and the
// exported trace bytes. Any difference between a fast-forwarded and a
// cycle-by-cycle run shows up in one of the two. It also checks stall
// conservation: the attributed causes must sum to the controller's
// queued-wait counter.
func runArtifacts(t *testing.T, o Options) (resJSON, traceBytes []byte) {
	t.Helper()
	var buf bytes.Buffer
	o.Telemetry = &TelemetryOptions{Attribution: true, Occupancy: true, TraceWriter: &buf}
	res, err := Run(o)
	if err != nil {
		t.Fatalf("Run(%v/%s, ff=%v): %v", o.Design, o.Benchmark, !o.DisableFastForward, err)
	}
	if st := res.Stalls; st != nil && st.Sum() != st.QueuedWaitCycles {
		t.Errorf("attribution leak (ff=%v): causes sum to %d, queued-wait counter says %d",
			!o.DisableFastForward, st.Sum(), st.QueuedWaitCycles)
	}
	j, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return j, buf.Bytes()
}

// assertMatchesReference runs o as given and again with fast-forward
// disabled, with full telemetry attached, and requires byte-identical
// Result JSON and trace output.
func assertMatchesReference(t *testing.T, o Options) {
	t.Helper()
	res, tr := runArtifacts(t, o)
	o.DisableFastForward = true
	refRes, refTrace := runArtifacts(t, o)
	if !bytes.Equal(res, refRes) {
		t.Errorf("Result diverged from the cycle-by-cycle reference:\n  run: %s\n  ref: %s", res, refRes)
	}
	if !bytes.Equal(tr, refTrace) {
		t.Errorf("trace diverged from the cycle-by-cycle reference (%d vs %d bytes)", len(tr), len(refTrace))
	}
}

// forEachDesignBenchmark runs check as a parallel subtest for every
// design × benchmark pair, on the paper's 8×2 grid at ffInstr.
func forEachDesignBenchmark(t *testing.T, check func(*testing.T, Options)) {
	for _, d := range Designs() {
		t.Run(d.String(), func(t *testing.T) {
			for _, bench := range Benchmarks() {
				t.Run(bench, func(t *testing.T) {
					t.Parallel()
					check(t, Options{Design: d, SAGs: 8, CDs: 2, Benchmark: bench, Instructions: ffInstr})
				})
			}
		})
	}
}

// TestFastForwardDifferential is the tier-1 exactness gate: every
// benchmark × every design, fast-forwarded vs cycle-by-cycle, must
// produce byte-identical Result JSON (stall buckets, occupancy, energy,
// latency percentiles — everything) and byte-identical trace output.
func TestFastForwardDifferential(t *testing.T) {
	forEachDesignBenchmark(t, assertMatchesReference)
}

// TestSchedIndexDifferential runs the same differential, stall
// conservation included, under the FCFS scheduler: the matrix above
// covers only the default FR-FCFS policy. The name is kept from when
// the test compared an indexed scheduler with the plain queue scan; the
// scan is now the only scheduler. DRAM has its own scheduler and
// ignores Options.Scheduler.
func TestSchedIndexDifferential(t *testing.T) {
	forEachDesignBenchmark(t, func(t *testing.T, o Options) {
		o.Scheduler = SchedFCFS
		assertMatchesReference(t, o)
	})
}

// TestFastForwardConservation re-checks the stall-attribution
// conservation invariant specifically on fast-forwarded runs: the
// weighted stall events emitted by the batch-crediting path must sum to
// the controller's independently batch-credited queued-wait counter.
func TestFastForwardConservation(t *testing.T) {
	for _, bench := range []string{"lbm", "mcf"} {
		r, err := Run(Options{
			Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: bench, Instructions: ffInstr,
			Telemetry: &TelemetryOptions{Attribution: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Stalls.QueuedWaitCycles == 0 {
			t.Fatalf("%s: no queued waiting; workload too light to test conservation", bench)
		}
		if got := r.Stalls.Sum(); got != r.Stalls.QueuedWaitCycles {
			t.Errorf("%s: attribution leak under fast-forward: causes sum to %d, queued-wait counter says %d",
				bench, got, r.Stalls.QueuedWaitCycles)
		}
	}
}

// TestDegenerateFgNVMMatchesBaseline pins the structural property that
// a 1×1 FgNVM grid with every access mode disabled is the baseline
// bank: one SAG, one CD, full-row sensing, serialized writes. The two
// designs must agree on every timing observable, not approximately but
// exactly — they are the same state machine reached through different
// construction paths.
func TestDegenerateFgNVMMatchesBaseline(t *testing.T) {
	for _, bench := range []string{"lbm", "mcf", "bwaves"} {
		base, err := Run(Options{Design: DesignBaseline, Benchmark: bench, Instructions: ffInstr})
		if err != nil {
			t.Fatal(err)
		}
		deg, err := Run(Options{
			Design: DesignFgNVM, SAGs: 1, CDs: 1, Modes: &AccessModeSet{},
			Benchmark: bench, Instructions: ffInstr,
		})
		if err != nil {
			t.Fatal(err)
		}
		if deg.IPC != base.IPC || deg.Cycles != base.Cycles {
			t.Errorf("%s: 1x1 modes-off FgNVM != baseline: IPC %v vs %v, cycles %d vs %d",
				bench, deg.IPC, base.IPC, deg.Cycles, base.Cycles)
		}
		if deg.Reads != base.Reads || deg.Writes != base.Writes ||
			deg.AvgReadLatency != base.AvgReadLatency || deg.AvgWriteLatency != base.AvgWriteLatency {
			t.Errorf("%s: 1x1 modes-off FgNVM traffic diverged from baseline: %+v vs %+v", bench, deg, base)
		}
	}
}

// TestFastForwardRandomStream drives the differential check with a
// stream shape the profile generators never produce — independently
// seeded addresses, write mix, and gaps from a raw SplitMix64 walk —
// so exactness does not silently depend on the benchmark profiles'
// locality structure. The stream outlasts the default LLC warm-up by
// 4,096 accesses, so every design simulates its full budget.
func TestFastForwardRandomStream(t *testing.T) {
	mk := func() trace.Stream {
		state := uint64(0x5eed)
		next := func() uint64 {
			state += 0x9e3779b97f4a7c15
			z := state
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			return z ^ (z >> 31)
		}
		accs := make([]trace.Access, DefaultWarmupAccesses+4096)
		for i := range accs {
			accs[i] = trace.Access{
				Gap:   uint32(next() % 200),
				Addr:  (next() % (64 << 20)) &^ 63,
				Write: next()%100 < 40,
			}
		}
		return trace.NewSliceStream(accs)
	}
	for _, d := range []Design{DesignBaseline, DesignFgNVM, DesignDRAM} {
		run := func(disable bool) Result {
			r, err := Run(Options{
				Design: d, SAGs: 8, CDs: 2, Stream: mk(),
				Instructions: ffInstr, DisableFastForward: disable,
			})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		ff, ref := run(false), run(true)
		if ff.Instructions == 0 {
			t.Fatalf("%v: the random stream simulated no instructions", d)
		}
		ffJSON, _ := json.Marshal(ff)
		refJSON, _ := json.Marshal(ref)
		if !bytes.Equal(ffJSON, refJSON) {
			t.Errorf("%v: random-stream run diverged under fast-forward:\n  ff : %s\n  ref: %s", d, ffJSON, refJSON)
		}
	}
}

// countdownCtx is a context whose Err flips to Canceled after a fixed
// number of polls — a deterministic stand-in for "cancelled mid-run"
// that does not depend on wall-clock timing.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestFastForwardCancellation pins the fix for cancellation being
// starved across jumps: the run loop polls ctx.Err on mask-aligned
// ticks, and a fast-forward jump can skip every aligned tick in a long
// write drain — so the loop must re-poll after every jump. The test
// cancels deterministically mid-run (at half the total poll count of a
// completed run) on the write-heavy profile, where most of the run is
// fast-forwarded drain windows, and requires the run to stop.
func TestFastForwardCancellation(t *testing.T) {
	opts := Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: "lbm", Instructions: ffInstr}

	// First pass: count how often a full run polls Err.
	probe := &countdownCtx{Context: context.Background()}
	probe.left.Store(1 << 40)
	if _, err := RunContext(probe, opts); err != nil {
		t.Fatal(err)
	}
	polls := (1 << 40) - probe.left.Load()
	if polls < 4 {
		t.Fatalf("run polled ctx.Err only %d times; cannot cancel mid-run", polls)
	}

	// Second pass: cancel halfway. The run must return the context
	// error instead of completing.
	mid := &countdownCtx{Context: context.Background()}
	mid.left.Store(polls / 2)
	_, err := RunContext(mid, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run cancelled mid-drain returned %v, want context.Canceled", err)
	}
}
