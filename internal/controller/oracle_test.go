// Degenerate-bank oracle. A 1×1 bank has a single tile, so
// Backgrounded Writes, Multi-Activation and SALP's per-subarray sense
// amplifiers have nothing to run in parallel with: a one-subarray SALP
// bank is the unsubdivided bank (Kim et al.'s construction). Once the
// write-drain watermark is equalized, those configurations must behave
// exactly like the baseline bank. This checks the conflict rules
// against an outside construction rather than against themselves.

package controller

import (
	"reflect"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/trace"
)

// oracleOutcome is everything the oracle compares between runs.
type oracleOutcome struct {
	End         sim.Tick
	Latency     []sim.Tick // per request, in stream order
	Activations uint64
	Drains      uint64
	EnergyPJ    float64
}

// driveClosedLoop feeds n accesses of s through a controller built from
// cfg. The source is closed-loop: each tick it offers its oldest
// unaccepted access to Enqueue and retries it next tick on rejection.
// It runs until every request has completed.
func driveClosedLoop(t *testing.T, cfg Config, s trace.Stream, n int) oracleOutcome {
	t.Helper()
	cfg.Energy = energy.New(energy.Config{
		RowBufferBits: cfg.Geom.RowBytes() * 8,
		Banks:         cfg.Geom.Channels * cfg.Geom.Ranks * cfg.Geom.Banks,
	})
	eng := sim.NewEngine()
	c, err := New(cfg, eng)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*mem.Request, 0, n)
	var next *mem.Request
	const limit = 50_000_000
	now := sim.Tick(0)
	for ; ; now++ {
		if now > limit {
			t.Fatalf("not drained by tick %d", limit)
		}
		eng.RunUntil(now)
		if next == nil && len(reqs) < n {
			a, _ := s.Next()
			op := mem.Read
			if a.Write {
				op = mem.Write
			}
			next = &mem.Request{ID: uint64(len(reqs) + 1), Op: op, Addr: a.Addr}
		}
		if next != nil && c.Enqueue(next, now) {
			reqs = append(reqs, next)
			next = nil
		}
		c.Cycle(now)
		if len(reqs) == n && c.Drained() && eng.Pending() == 0 {
			break
		}
	}
	cfg.Energy.AdvanceBackground(now) // charged once, from the final tick, as fgnvm.RunContext does
	out := oracleOutcome{
		End:         now,
		Latency:     make([]sim.Tick, n),
		Activations: c.Stats().Activations.Value(),
		Drains:      c.Stats().WriteDrainEvents.Value(),
		EnergyPJ:    cfg.Energy.TotalPJ(),
	}
	for i, r := range reqs {
		out.Latency[i] = r.Latency()
	}
	return out
}

// TestDegenerateBankOracle runs every benchmark profile's stream on a
// 1×1 paper-geometry bank. The baseline with its drain starting at the
// full queue, a Backgrounded-Writes-only bank and a SALP bank must
// agree on end tick, every request's latency, activations, drain
// events and energy. The baseline at its default watermark must
// differ from the Backgrounded-Writes bank: the drain watermark
// follows the mode, not the geometry (see updateDrain).
func TestDegenerateBankOracle(t *testing.T) {
	const n = 3000
	g := addr.PaperGeometry()
	g.SAGs, g.CDs = 1, 1
	base := Config{Geom: g, Tim: timing.Paper(), Interleave: addr.RowBankRankChanCol}
	fullQueueBaseline := base
	fullQueueBaseline.WriteHighWM = 32 // the default WriteQueueCap
	bwOnly := base
	bwOnly.Modes = core.AccessModes{BackgroundedWrites: true}
	salp := base
	salp.Modes = core.AccessModes{MultiActivation: true, BackgroundedWrites: true, LocalSenseAmps: true}

	for _, p := range trace.Profiles() {
		stream := func() trace.Stream { return trace.NewGenerator(p, g.LineBytes, g.RowBytes(), 1) }
		want := driveClosedLoop(t, fullQueueBaseline, stream(), n)
		for _, tc := range []struct {
			name string
			cfg  Config
		}{{"BW-only", bwOnly}, {"SALP", salp}} {
			if got := driveClosedLoop(t, tc.cfg, stream(), n); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: 1×1 %s bank differs from the full-queue-watermark baseline: end %d vs %d, activations %d vs %d, drains %d vs %d, energy %.1f vs %.1f pJ",
					p.Name, tc.name, got.End, want.End, got.Activations, want.Activations,
					got.Drains, want.Drains, got.EnergyPJ, want.EnergyPJ)
			}
		}
		if reflect.DeepEqual(driveClosedLoop(t, base, stream(), n), want) {
			t.Errorf("%s: the default-watermark baseline matches the Backgrounded-Writes bank; the drain watermark no longer depends on the mode", p.Name)
		}
	}
}
