// Package bank provides the comparison memory-bank models of the paper's
// evaluation:
//
//   - Baseline: an independent re-implementation of the prototype NVM
//     bank [13] — one global row buffer, full-row sensing, completely
//     serialized operations. It exists separately from the degenerate
//     1×1 core.Bank so the two can cross-validate each other in tests.
//   - ManyBanksGeometry: the "128 banks per rank" idealized comparison
//     point of Figure 4, where each bank is sized like one (SAG, CD)
//     pair of the FgNVM design.
package bank

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/energy"
	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/timing"
)

// Baseline models the state-of-the-art NVM prototype bank: a single row
// buffer per bank, every activation senses the full row, and any
// operation (sense or write) serializes the whole bank.
//
// Like core.Bank, a Baseline belongs to exactly one channel.
type Baseline struct {
	geom addr.Geometry
	tim  timing.Timings
	emod *energy.Model

	openRow   int
	busyUntil sim.Tick // sense or write occupancy (blocks new row operations)
	writeBusy sim.Tick // write occupancy (blocks column reads too)
	segReady  sim.Tick
	colReady  sim.Tick
	lineBits  int
	rowBits   int
	pulses    sim.Tick

	acts   uint64
	writes uint64

	sink telemetry.Sink
	id   telemetry.BankID

	// inv re-checks serialization as the degenerate 1×1 tile grid.
	// Only non-nil under the fgnvm_invariants build tag.
	inv *invariant.TileTracker
}

// NewBaseline builds a baseline bank. writeDrivers is the number of bits
// programmed in parallel (Table 2: 64).
func NewBaseline(g addr.Geometry, t timing.Timings, em *energy.Model, writeDrivers int) (*Baseline, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if writeDrivers <= 0 {
		return nil, fmt.Errorf("bank: writeDrivers = %d", writeDrivers)
	}
	lineBits := g.LineBytes * 8
	b := &Baseline{
		geom:     g,
		tim:      t,
		emod:     em,
		openRow:  -1,
		lineBits: lineBits,
		rowBits:  g.RowBytes() * 8,
		pulses:   sim.Tick((lineBits + writeDrivers - 1) / writeDrivers),
	}
	if invariant.Enabled {
		b.inv = invariant.NewTileTracker(1, 1, false)
	}
	return b, nil
}

// SetTelemetry attaches a telemetry sink (nil detaches). The baseline
// bank is a degenerate 1×1 tile grid, so every command span lands on
// tile (0, 0).
func (b *Baseline) SetTelemetry(sink telemetry.Sink, id telemetry.BankID) {
	b.sink = sink
	b.id = id
}

// NeedsActivate reports whether row must be sensed before column access.
func (b *Baseline) NeedsActivate(row int, now sim.Tick) bool {
	return b.openRow != row || now < b.segReady
}

// CanActivate reports whether an activation may issue at now. With a
// single CD, even a re-sense of the open row must wait for the shared
// sense path, so the whole-bank busy window is the only condition —
// exactly the 1×1 degenerate case of the core model's rules.
func (b *Baseline) CanActivate(now sim.Tick) bool { return now >= b.busyUntil }

// Activate senses the full row; returns when column commands may issue
// (now + tRCD). The bank's sense path stays occupied for tRCD + tCAS —
// the current-mode sensing window — blocking any other row operation.
func (b *Baseline) Activate(row int, now sim.Tick) sim.Tick {
	if !b.CanActivate(now) {
		panic(fmt.Sprintf("bank: Activate at %d while busy until %d", now, b.busyUntil))
	}
	b.openRow = row
	ready := now + b.tim.TRCD
	if b.inv != nil {
		b.inv.Sense(0, 0, row, uint64(now), uint64(now+b.tim.TRCD+b.tim.TCAS))
	}
	if end := now + b.tim.TRCD + b.tim.TCAS; end > b.busyUntil {
		b.busyUntil = end
	}
	b.segReady = ready
	b.acts++
	if b.emod != nil {
		b.emod.Sense(b.rowBits)
	}
	if b.sink != nil {
		b.sink.Command(telemetry.Command{
			Kind: telemetry.CmdActivate, Bank: b.id, Row: row,
			Start: now, End: now + b.tim.TRCD + b.tim.TCAS,
		})
	}
	return ready
}

// CanRead reports whether a column read for row may issue at now.
// Column commands for the open row pipeline within the sense window,
// but a write blocks them until it completes.
func (b *Baseline) CanRead(row int, now sim.Tick) bool {
	return b.openRow == row && now >= b.segReady && now >= b.writeBusy && now >= b.colReady
}

// Read issues a column read; returns when the burst completes.
func (b *Baseline) Read(row int, now sim.Tick) sim.Tick {
	if !b.CanRead(row, now) {
		panic(fmt.Sprintf("bank: Read(row=%d) at %d not permitted", row, now))
	}
	b.colReady = now + b.tim.TCCD
	done := now + b.tim.ReadLatency
	if b.sink != nil {
		b.sink.Command(telemetry.Command{
			Kind: telemetry.CmdRead, Bank: b.id, Row: row,
			Start: now, End: done,
		})
	}
	return done
}

// CanWrite reports whether a line write may issue at now.
func (b *Baseline) CanWrite(now sim.Tick) bool {
	return now >= b.busyUntil && now >= b.colReady
}

// Write programs one line, blocking the bank; returns the completion
// tick.
func (b *Baseline) Write(row int, now sim.Tick) sim.Tick {
	if !b.CanWrite(now) {
		panic(fmt.Sprintf("bank: Write at %d while busy", now))
	}
	done := now + b.tim.TCWD + b.pulses*b.tim.TWP + b.tim.TWR
	if b.inv != nil {
		b.inv.Write(0, 0, uint64(now), uint64(done))
	}
	b.busyUntil = done
	b.writeBusy = done
	b.colReady = now + b.tim.TCCD
	// Any write moves the bank's single wordline selection and leaves no
	// sensed data behind, so the row buffer is stale afterwards.
	b.openRow = -1
	b.writes++
	if b.emod != nil {
		b.emod.Write(b.lineBits)
	}
	if b.sink != nil {
		b.sink.Command(telemetry.Command{
			Kind: telemetry.CmdWrite, Bank: b.id, Row: row,
			Start: now, End: done,
		})
	}
	return done
}

// Activations returns the number of activations issued.
func (b *Baseline) Activations() uint64 { return b.acts }

// Writes returns the number of writes issued.
func (b *Baseline) Writes() uint64 { return b.writes }

// ManyBanksGeometry derives the Figure 4 "128 banks" comparison setup
// from an FgNVM geometry: the bank count multiplies by SAGs×CDs, each
// new bank is sized like one (SAG, CD) pair (rows/SAGs rows of cols/CDs
// columns), and the subdivisions collapse to 1×1. Total capacity is
// preserved.
func ManyBanksGeometry(g addr.Geometry) (addr.Geometry, error) {
	if err := g.Validate(); err != nil {
		return addr.Geometry{}, err
	}
	out := g
	out.Banks = g.Banks * g.SAGs * g.CDs
	out.Rows = g.Rows / g.SAGs
	out.Cols = g.Cols / g.CDs
	out.SAGs = 1
	out.CDs = 1
	if err := out.Validate(); err != nil {
		return addr.Geometry{}, fmt.Errorf("bank: derived many-banks geometry invalid: %w", err)
	}
	return out, nil
}
