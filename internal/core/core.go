// Package core implements the paper's primary contribution: the FgNVM
// memory bank with two-dimensional subdivision into subarray groups
// (SAGs, the row dimension) and column divisions (CDs, the column
// dimension), and the three access modes it enables —
// Partial-Activation, Multi-Activation, and Backgrounded Writes
// (Section 4 of the DAC'16 paper).
//
// # Model
//
// A bank is a grid of SAGs × CDs logical tiles. Each SAG has one local
// row decoder and one row-address latch, so at most one wordline can be
// selected per SAG at any time. Each CD has CSL latches and local
// Y-select enables, so at most one tile in a CD can be sensing or
// write-driving at any time. The global sense amplifiers (row buffer) at
// the bank edge hold, per CD, the last segment sensed through that CD.
//
// The conflict rules implemented here are exactly those of Section 4:
//
//  1. Two sensing operations may overlap only if they target different
//     SAGs and different CDs (Multi-Activation).
//  2. No tile can be activated in the same CD as a tile currently being
//     sensed or written.
//  3. No second wordline can be selected in a SAG while the SAG is
//     sensing or being written; selecting a new row in a SAG invalidates
//     the previously sensed segments of that SAG.
//  4. A write (Backgrounded Write) occupies its SAG and its CD until the
//     write pulse train completes; all other (SAG, CD) pairs remain
//     readable.
//
// Degenerate configurations recover the comparison points of the paper:
// SAGs=1, CDs=1 with all modes off is the baseline NVM prototype bank
// (one global row buffer, fully serialized); SAGs=N, CDs=1 is a
// SALP-style one-dimensional subdivision.
package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/energy"
	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/timing"
)

// AccessModes selects which of the paper's new access types are enabled.
// All three default to off, which models the baseline bank.
type AccessModes struct {
	// PartialActivation senses only the CD-wide segment containing the
	// requested column instead of the full row.
	PartialActivation bool
	// MultiActivation allows concurrent sensing in tiles of different
	// rows, provided they are in different SAGs and different CDs.
	MultiActivation bool
	// BackgroundedWrites lets a write occupy only its (SAG, CD) pair so
	// reads can proceed in the rest of the bank. When off, a write
	// serializes the whole bank, as in the baseline.
	BackgroundedWrites bool
	// LocalSenseAmps models DRAM-SALP-style subarrays that own their
	// sense amplifiers: sensing occupies only the SAG, not the CD's
	// bank-edge sense path, and latched segments survive other SAGs'
	// activations in the same CD. The FgNVM design does NOT have this
	// (its row buffer lives at the bank edge behind the GY-SEL, which
	// is what keeps its area overhead at Table 1 levels); the flag
	// exists for the 1-D SALP comparison the paper discusses in §2.
	LocalSenseAmps bool
}

// AllModes returns the full FgNVM feature set.
func AllModes() AccessModes {
	return AccessModes{PartialActivation: true, MultiActivation: true, BackgroundedWrites: true}
}

// Config assembles the parameters of one bank.
type Config struct {
	Geom   addr.Geometry
	Tim    timing.Timings
	Modes  AccessModes
	Energy *energy.Model // optional; nil disables energy accounting

	// WriteDrivers is the number of bits programmed in parallel
	// (Table 2: 64 write drivers). A 64-byte line therefore needs
	// LineBytes*8/WriteDrivers sequential write pulses.
	WriteDrivers int

	// Sink, when non-nil, receives a telemetry.Command span for every
	// activation, column read and write the bank performs, stamped
	// with ID. Nil disables the hooks at the cost of one branch.
	Sink telemetry.Sink
	// ID names this bank on telemetry events.
	ID telemetry.BankID

	// Calendar receives every timer tick the bank's commands set. The
	// controller hands one calendar to all banks of a channel; nil gives
	// the bank a calendar of its own.
	Calendar *Calendar
}

// Bank is the FgNVM bank state machine. It tracks only timing and
// occupancy, not data contents. All times are absolute controller
// cycles; "busy until" values are exclusive (resource free at that tick).
//
// A Bank belongs to exactly one channel; the energy model and the
// telemetry sink are the only references it holds to shared state.
type Bank struct {
	geom  addr.Geometry
	tim   timing.Timings
	modes AccessModes
	emod  *energy.Model
	sink  telemetry.Sink
	id    telemetry.BankID

	sagMask  int // SAGs-1: SAGs is a power of two (addr.Geometry.Validate)
	cdMask   int // CDs-1
	segBits  int // bits sensed by a partial activation
	rowBits  int // bits sensed by a full activation
	lineBits int
	pulses   sim.Tick // write pulses per line (serialized on WriteDrivers)

	openRow  []int        // per SAG: wordline currently latched, -1 if none
	openSeg  [][]int      // [sag][cd]: row whose data is in that CD's row buffer, -1 if none
	segReady [][]sim.Tick // [sag][cd]: tick at which the sensed data is usable
	sagBusy  []sim.Tick   // per SAG: busy (sensing or writing) until
	sagWrite []sim.Tick   // per SAG: write-driving until
	cdBusy   []sim.Tick   // per CD: busy (sensing or writing) until
	cdWrite  []sim.Tick   // per CD: write-driving until (blocks column reads)
	bankBusy sim.Tick     // whole-bank serialization when modes disable parallelism
	colReady []sim.Tick   // per CD: earliest next column command (tCCD spacing)
	writeEnd sim.Tick     // completion tick of the latest-ending write

	// timers is the one array behind sagBusy, sagWrite, cdBusy, cdWrite,
	// colReady and every segReady row, so NextRelease's scan is a single
	// pass over contiguous memory.
	timers []sim.Tick

	// cal is the channel's release calendar: every command notes the
	// timer ticks it sets there.
	cal *Calendar

	// inv independently re-checks the Section 4 conflict rules on every
	// issued operation. Only non-nil under the fgnvm_invariants build
	// tag; the default build carries just this nil field.
	inv *invariant.TileTracker

	// Statistics.
	acts        uint64 // activations issued (full or partial)
	partialActs uint64
	writesBusy  uint64 // writes issued
}

// NewBank validates cfg and returns a bank with all rows closed.
func NewBank(cfg Config) (*Bank, error) {
	if err := cfg.Geom.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Tim.Validate(); err != nil {
		return nil, err
	}
	if cfg.WriteDrivers <= 0 {
		return nil, fmt.Errorf("core: WriteDrivers = %d, must be positive", cfg.WriteDrivers)
	}
	lineBits := cfg.Geom.LineBytes * 8
	pulses := (lineBits + cfg.WriteDrivers - 1) / cfg.WriteDrivers
	b := &Bank{
		geom:     cfg.Geom,
		tim:      cfg.Tim,
		modes:    cfg.Modes,
		emod:     cfg.Energy,
		sink:     cfg.Sink,
		id:       cfg.ID,
		sagMask:  cfg.Geom.SAGs - 1,
		cdMask:   cfg.Geom.CDs - 1,
		segBits:  cfg.Geom.SegmentBytes() * 8,
		rowBits:  cfg.Geom.RowBytes() * 8,
		lineBits: lineBits,
		pulses:   sim.Tick(pulses),
		cal:      cfg.Calendar,
	}
	if b.cal == nil {
		b.cal = NewCalendar()
	}
	// One allocation each for the row latches and the timers; the
	// per-SAG and per-CD views are carved out of them.
	sags, cds := cfg.Geom.SAGs, cfg.Geom.CDs
	rows := make([]int, sags+sags*cds)
	for i := range rows {
		rows[i] = -1 // nothing latched
	}
	b.timers = make([]sim.Tick, 2*sags+3*cds+sags*cds)
	ticks := b.timers
	carve := func(n int) []sim.Tick {
		t := ticks[:n:n]
		ticks = ticks[n:]
		return t
	}
	b.openRow, rows = rows[:sags:sags], rows[sags:]
	b.sagBusy, b.sagWrite = carve(sags), carve(sags)
	b.cdBusy, b.cdWrite, b.colReady = carve(cds), carve(cds), carve(cds)
	b.openSeg = make([][]int, sags)
	b.segReady = make([][]sim.Tick, sags)
	for s := range b.openSeg {
		b.openSeg[s], rows = rows[:cds:cds], rows[cds:]
		b.segReady[s] = carve(cds)
	}
	if invariant.Enabled {
		b.inv = invariant.NewTileTracker(cfg.Geom.SAGs, cfg.Geom.CDs, cfg.Modes.LocalSenseAmps)
	}
	return b, nil
}

// MustNewBank is NewBank but panics on error.
func MustNewBank(cfg Config) *Bank {
	b, err := NewBank(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// WritePulses returns the number of serialized write pulses per line.
func (b *Bank) WritePulses() sim.Tick { return b.pulses }

// WriteOccupancy returns how long a line write holds its tile:
// tCWD + pulses×tWP + tWR.
func (b *Bank) WriteOccupancy() sim.Tick {
	return b.tim.TCWD + b.pulses*b.tim.TWP + b.tim.TWR
}

// sag and cd locate a (row, col) pair in the tile grid, matching
// addr.Geometry.SAG and CD: low row bits pick the SAG (SALP-style
// subarray interleaving), and cache lines round-robin across CDs.
// Both counts are powers of two, so a mask replaces the modulo.
func (b *Bank) sag(row int) int { return row & b.sagMask }
func (b *Bank) cd(col int) int  { return col & b.cdMask }

// NeedsActivate reports whether accessing (row, col) at time now requires
// a (partial) activation first, i.e. the segment is not open and ready.
func (b *Bank) NeedsActivate(row, col int, now sim.Tick) bool {
	return !b.SegmentOpen(row, col) || now < b.segReady[b.sag(row)][b.cd(col)]
}

// SegmentOpen reports whether the segment holding (row, col) has been
// sensed and its wordline latch still selects that row (ignoring whether
// sensing has finished; see NeedsActivate).
func (b *Bank) SegmentOpen(row, col int) bool {
	s, c := b.sag(row), b.cd(col)
	return b.openRow[s] == row && b.openSeg[s][c] == row
}

// CanActivate reports whether an activation targeting (row, col) may
// issue at time now under the conflict rules.
func (b *Bank) CanActivate(row, col int, now sim.Tick) bool {
	s, c := b.sag(row), b.cd(col)
	if b.openRow[s] == row && b.openSeg[s][c] == row && now < b.sagBusy[s] {
		// The target segment is already open and its SAG still sensing:
		// a second activation would only restart the sense. Without
		// this, local sense amps (SALP) would admit one.
		return false
	}
	_, until := b.activationBlocker(s, c, row, now)
	return until == 0
}

// SenseOccupancy returns how long an activation holds its SAG and
// CD(s): tRCD + tCAS. In this PCM prototype the sensing is performed by
// current-mode sense amplification through the Y-select path, so the
// array and sense path stay busy for the whole read-sense window — the
// serialized resource that Multi-Activation parallelizes. Column
// commands for the row being sensed pipeline within this window (the
// first data still emerges tRCD+tCAS+tBURST after the activation).
func (b *Bank) SenseOccupancy() sim.Tick { return b.tim.TRCD + b.tim.TCAS }

// Activate issues a (partial) activation for (row, col) at time now.
// It panics if CanActivate is false — the controller must check first.
// It returns the tick at which column commands for the sensed segment
// may issue (now + tRCD); the SAG/CD sense path stays occupied for
// SenseOccupancy.
func (b *Bank) Activate(row, col int, now sim.Tick) sim.Tick {
	if !b.CanActivate(row, col, now) {
		panic(fmt.Sprintf("core: Activate(row=%d,col=%d) at %d violates conflict rules", row, col, now))
	}
	s := b.sag(row)
	ready := now + b.tim.TRCD
	senseEnd := now + b.SenseOccupancy()
	b.cal.note(ready)
	b.cal.note(senseEnd)

	// Selecting a new wordline in this SAG invalidates previously sensed
	// segments of other rows (the row latch is per SAG).
	if b.openRow[s] != row {
		for c := range b.openSeg[s] {
			if b.openSeg[s][c] != row {
				b.openSeg[s][c] = -1
			}
		}
	}
	b.openRow[s] = row
	if senseEnd > b.sagBusy[s] {
		b.sagBusy[s] = senseEnd
	}
	if !b.modes.MultiActivation {
		b.bankBusy = senseEnd
	}

	// Sensing lands in the bank-edge sense amplifiers of each targeted
	// CD, displacing whatever segment any other SAG had latched there.
	// With local sense amps (DRAM-SALP mode) each SAG keeps its own
	// latches, so nothing is displaced and the CD path stays free.
	latch := func(c int) {
		if !b.modes.LocalSenseAmps {
			for s2 := range b.openSeg {
				if s2 != s {
					b.openSeg[s2][c] = -1
				}
			}
			b.cdBusy[c] = senseEnd
		}
		b.openSeg[s][c] = row
		b.segReady[s][c] = ready
	}

	if b.inv != nil {
		cd := invariant.AllCDs
		if b.modes.PartialActivation {
			cd = b.cd(col)
		}
		b.inv.Sense(s, cd, row, uint64(now), uint64(senseEnd))
	}

	b.acts++
	if b.modes.PartialActivation {
		latch(b.cd(col))
		b.partialActs++
		if b.emod != nil {
			b.emod.Sense(b.segBits)
		}
		if b.sink != nil {
			b.emitCommand(telemetry.CmdActivate, s, b.cd(col), row, col, now, senseEnd)
		}
	} else {
		for c := range b.cdBusy {
			latch(c)
		}
		if b.emod != nil {
			b.emod.Sense(b.rowBits)
		}
		if b.sink != nil {
			// A full-row activation senses through every CD: one span
			// per CD track.
			for c := range b.cdBusy {
				b.emitCommand(telemetry.CmdActivate, s, c, row, col, now, senseEnd)
			}
		}
	}
	return ready
}

// emitCommand reports one command span to the telemetry sink. Callers
// guard with a nil check so the disabled path stays branch-only.
func (b *Bank) emitCommand(kind telemetry.CommandKind, sag, cd, row, col int, start, end sim.Tick) {
	b.sink.Command(telemetry.Command{
		Kind: kind, Bank: b.id, SAG: sag, CD: cd,
		Row: row, Col: col, Start: start, End: end,
	})
}

// CanRead reports whether a column read for (row, col) may issue at now:
// the segment must be open and its sensing started (column commands
// pipeline within the sense window), the CD must not be write-driving
// (rule 2/4: no read from a CD being written), and tCCD spacing must be
// respected. The shared data-bus check belongs to the controller.
func (b *Bank) CanRead(row, col int, now sim.Tick) bool {
	if !b.SegmentOpen(row, col) {
		return false
	}
	s, c := b.sag(row), b.cd(col)
	if now < b.segReady[s][c] {
		return false
	}
	if now < b.cdWrite[c] {
		return false // this CD's I/O path is occupied by a write
	}
	if now < b.colReady[c] {
		return false // tCCD spacing on this CD's column path
	}
	return true
}

// Read issues a column read at now. It panics if CanRead is false.
// The returned tick is when the data burst finishes (now+tCAS+tBURST).
// Column-read energy is part of the sensing cost already charged at
// activation (the data is latched in the global sense amplifiers).
// Contention on the shared global I/O lines ("column conflicts") is the
// controller's responsibility: each CD only enforces its own tCCD.
func (b *Bank) Read(row, col int, now sim.Tick) sim.Tick {
	if !b.CanRead(row, col, now) {
		panic(fmt.Sprintf("core: Read(row=%d,col=%d) at %d not permitted", row, col, now))
	}
	b.colReady[b.cd(col)] = now + b.tim.TCCD
	b.cal.note(now + b.tim.TCCD)
	done := now + b.tim.ReadLatency
	if b.sink != nil {
		b.emitCommand(telemetry.CmdRead, b.sag(row), b.cd(col), row, col, now, done)
	}
	return done
}

// CanWrite reports whether a line write targeting (row, col) may issue
// at now: no conflict rule blocks it (see WriteStallCause) and tCCD
// spacing on its CD's column path is respected (see ColumnReady).
func (b *Bank) CanWrite(row, col int, now sim.Tick) bool {
	if _, until := b.writeBlocker(b.sag(row), b.cd(col), now); until != 0 {
		return false
	}
	return b.ColumnReady(col, now)
}

// ColumnReady reports whether the CD of col has met its tCCD spacing at
// now. For a write no conflict rule blocks, it is the rest of CanWrite.
func (b *Bank) ColumnReady(col int, now sim.Tick) bool {
	return now >= b.ColumnReadyAt(col)
}

// ColumnReadyAt returns the tick from which the CD of col has met its
// tCCD spacing: ColumnReady's timer, which bounds a stall class that
// tCCD pacing decides.
func (b *Bank) ColumnReadyAt(col int) sim.Tick { return b.colReady[b.cd(col)] }

// Write issues a line write at now; panics if CanWrite is false.
// The returned tick is when the tile becomes free again
// (now + tCWD + pulses×tWP + tWR).
func (b *Bank) Write(row, col int, now sim.Tick) sim.Tick {
	if !b.CanWrite(row, col, now) {
		panic(fmt.Sprintf("core: Write(row=%d,col=%d) at %d not permitted", row, col, now))
	}
	s, c := b.sag(row), b.cd(col)
	done := now + b.WriteOccupancy()
	b.cal.note(done)
	b.cal.note(now + b.tim.TCCD)
	if b.inv != nil {
		b.inv.Write(s, c, uint64(now), uint64(done))
	}

	// The write drives a wordline in this SAG: previously sensed
	// segments of other rows in the SAG are invalidated (rule 3).
	if b.openRow[s] != row {
		for i := range b.openSeg[s] {
			if b.openSeg[s][i] != row {
				b.openSeg[s][i] = -1
			}
		}
	}
	b.openRow[s] = row
	// Writing does not leave sensed data behind: the segment written
	// through this CD is no longer valid in the row buffer.
	b.openSeg[s][c] = -1

	b.sagBusy[s] = done
	b.sagWrite[s] = done
	b.cdBusy[c] = done
	b.cdWrite[c] = done
	if !b.modes.BackgroundedWrites {
		b.bankBusy = done
		for i := range b.sagBusy {
			b.sagBusy[i] = done
			b.sagWrite[i] = done
		}
		for i := range b.cdBusy {
			b.cdBusy[i] = done
			b.cdWrite[i] = done
		}
	} else if !b.modes.MultiActivation {
		b.bankBusy = done
	}
	b.colReady[c] = now + b.tim.TCCD

	if done > b.writeEnd {
		b.writeEnd = done
	}
	b.writesBusy++
	if b.emod != nil {
		b.emod.Write(b.lineBits)
	}
	if b.sink != nil {
		b.emitCommand(telemetry.CmdWrite, s, c, row, col, now, done)
	}
	return done
}

// WriteInFlight reports whether any write is still programming at now —
// the condition under which a concurrent read counts as happening under
// a Backgrounded Write.
func (b *Bank) WriteInFlight(now sim.Tick) bool { return now < b.writeEnd }

// NextRelease returns the earliest tick strictly after now at which any
// bank timer expires — the next moment a predicate over this bank's
// state (CanRead/CanWrite/CanActivate/…StallCause) can change its
// answer, absent new commands. Every such predicate compares now
// against one of the timers scanned here, so between now+1 and
// NextRelease(now)-1 the bank's admissible-command set and stall
// classifications are constant. Returns sim.MaxTick when every timer
// has already expired.
//
// It is a full scan over every timer. Only the fgnvm_invariants
// calendar check and the tests call it: the run loop asks the channel's
// Calendar, and the stall memo bounds a class by the timers its
// classification compared (ReadStallCause, WriteStallCause).
func (b *Bank) NextRelease(now sim.Tick) sim.Tick {
	next := sim.MaxTick
	for _, t := range b.timers {
		if t > now && t < next {
			next = t
		}
	}
	for _, t := range [...]sim.Tick{b.bankBusy, b.writeEnd} {
		if t > now && t < next {
			next = t
		}
	}
	return next
}

// Activations returns the number of activation commands issued.
func (b *Bank) Activations() uint64 { return b.acts }

// PartialActivations returns how many of those were partial.
func (b *Bank) PartialActivations() uint64 { return b.partialActs }

// WritesIssued returns the number of line writes issued.
func (b *Bank) WritesIssued() uint64 { return b.writesBusy }

// SAGOf and CDOf expose the tile-grid projection for the controller.
func (b *Bank) SAGOf(row int) int { return b.sag(row) }

// CDOf returns the column division of a column index.
func (b *Bank) CDOf(col int) int { return b.cd(col) }

// ReadStallCause classifies why a read of (row, col) cannot make
// progress at now, from the device's point of view. blocked=false
// means no bank resource is in the way: the segment is ready (the
// remaining blockers — shared bus, tCCD pacing, scheduling — belong to
// the controller), or the request's own activation is still sensing
// (service, not a stall). A closed segment is classified by the
// activation rules CanActivate applies.
//
// until bounds the answer: it is the least timer above now among those
// the classification compared (the own sense's when it is in flight),
// or sim.MaxTick when none is, so absent a command the answer holds on
// [now, until). A comparison found false stays false as time passes,
// and the latches change only with a command.
func (b *Bank) ReadStallCause(row, col int, now sim.Tick) (cause telemetry.StallCause, blocked bool, until sim.Tick) {
	s, c := b.sag(row), b.cd(col)
	if !b.SegmentOpen(row, col) {
		return stallBound(b.activationBlocker(s, c, row, now))
	}
	if now < b.segReady[s][c] {
		return 0, false, b.segReady[s][c] // own sense in flight: service, not a stall
	}
	if now < b.cdWrite[c] {
		return telemetry.StallWriteDrain, true, b.cdWrite[c]
	}
	return 0, false, sim.MaxTick // device-ready (bus/tCCD are controller-side)
}

// stallBound turns a blocker's answer into a stall classifier's: a
// blocker reports the timer that blocks, or 0 when nothing does, and
// nothing it compared then lies above now.
func stallBound(cause telemetry.StallCause, until sim.Tick) (telemetry.StallCause, bool, sim.Tick) {
	if until == 0 {
		return 0, false, sim.MaxTick
	}
	return cause, true, until
}

// activationBlocker names the first conflict rule that keeps an
// activation of row in SAG s through CD c from issuing at now, with the
// least timer above now it compared, or reports until=0: no blocker.
// Every blocked answer ends at the first comparison it finds true, so
// until is that comparison's timer (bankBlocker's refines it).
// Precedence mirrors the rules: in-flight writes first (rule 4), then
// SAG wordline serialization (rule 3), then whole-bank serialization
// without Multi-Activation, then CD sense-path serialization (rule 2).
// A row the SAG's wordline already selects needs no new row selection,
// so only a write in the SAG blocks it there.
func (b *Bank) activationBlocker(s, c, row int, now sim.Tick) (telemetry.StallCause, sim.Tick) {
	if now < b.sagWrite[s] {
		return telemetry.StallWriteDrain, b.sagWrite[s]
	}
	if b.openRow[s] != row && now < b.sagBusy[s] {
		return telemetry.StallSAGConflict, b.sagBusy[s]
	}
	if !b.modes.MultiActivation && now < b.bankBusy {
		return b.bankBlocker(now)
	}
	if b.modes.LocalSenseAmps {
		// DRAM-SALP: sensing happens in the subarray's own amplifiers
		// and never contends for the bank-edge column path.
		return 0, 0
	}
	if b.modes.PartialActivation {
		return b.cdBlocker(c, now)
	}
	// Full-row activation senses every CD: all must be free.
	for i := range b.cdBusy {
		if cause, until := b.cdBlocker(i, now); until != 0 {
			return cause, until
		}
	}
	return 0, 0
}

// cdBlocker classifies CD c's bank-edge sense path at now: write
// drivers first, then an in-flight sense. until is the blocking timer,
// 0 when the path is free.
func (b *Bank) cdBlocker(c int, now sim.Tick) (telemetry.StallCause, sim.Tick) {
	if now < b.cdWrite[c] {
		return telemetry.StallWriteDrain, b.cdWrite[c]
	}
	if now < b.cdBusy[c] {
		return telemetry.StallCDConflict, b.cdBusy[c]
	}
	return 0, 0
}

// bankBlocker attributes whole-bank serialization, which holds until
// bankBusy > now, to the operation occupying the bank: a write in
// flight → write-drain, otherwise → SAG conflict (the single
// wordline/sense path is what the baseline serializes on). The cause
// can change when either timer it compared releases.
func (b *Bank) bankBlocker(now sim.Tick) (telemetry.StallCause, sim.Tick) {
	if b.WriteInFlight(now) {
		return telemetry.StallWriteDrain, min(b.writeEnd, b.bankBusy)
	}
	return telemetry.StallSAGConflict, b.bankBusy
}

// WriteStallCause is ReadStallCause's analogue for a line write of
// (row, col), with the same bound.
func (b *Bank) WriteStallCause(row, col int, now sim.Tick) (cause telemetry.StallCause, blocked bool, until sim.Tick) {
	return stallBound(b.writeBlocker(b.sag(row), b.cd(col), now))
}

// writeBlocker names the first conflict rule that keeps a write in SAG
// s through CD c from issuing at now, with the least timer above now
// it compared, or reports until=0: no blocker. A write needs its SAG's
// wordline and its CD's write drivers (every SAG and CD without
// Backgrounded Writes), and the bank itself when writes or senses
// serialize it.
//
// Without Backgrounded Writes the cause is that of the first blocked
// (SAG, CD) pair in row-major order. A pair is blocked exactly when its
// SAG or its CD is, so that pair is (0, 0) when SAG 0 is blocked, else
// (0, j) for the first blocked CD j, else (i, 0) for the first blocked
// SAG i: an O(SAGs + CDs) scan stands in for the O(SAGs × CDs) grid.
// The pairs before that pair were free at now and stay free, so it
// stays the first blocked pair, with the same cause, until the timer
// that blocks it releases: that timer bounds the answer.
func (b *Bank) writeBlocker(s, c int, now sim.Tick) (telemetry.StallCause, sim.Tick) {
	if cause, until := b.tileWriteBlocker(s, c, now); until != 0 {
		return cause, until
	}
	if !b.modes.BackgroundedWrites {
		if i, j, blocked := b.firstBlockedTile(now); blocked {
			return b.tileWriteBlocker(i, j, now)
		}
	}
	if now < b.bankBusy && (!b.modes.BackgroundedWrites || !b.modes.MultiActivation) {
		return b.bankBlocker(now)
	}
	return 0, 0
}

// tileWriteBlocker classifies the (SAG i, CD j) pair for a write at
// now: write drivers in either first, then the SAG's wordline, then the
// CD's sense path. until is the blocking timer, 0 when the pair is
// free.
func (b *Bank) tileWriteBlocker(i, j int, now sim.Tick) (telemetry.StallCause, sim.Tick) {
	if now < b.sagWrite[i] {
		return telemetry.StallWriteDrain, b.sagWrite[i]
	}
	if now < b.cdWrite[j] {
		return telemetry.StallWriteDrain, b.cdWrite[j]
	}
	if now < b.sagBusy[i] {
		return telemetry.StallSAGConflict, b.sagBusy[i]
	}
	if now < b.cdBusy[j] {
		return telemetry.StallCDConflict, b.cdBusy[j]
	}
	return 0, 0
}

// firstBlockedTile returns the first (SAG, CD) pair in row-major order
// that tileWriteBlocker finds blocked at now, or blocked=false when
// every pair is free.
func (b *Bank) firstBlockedTile(now sim.Tick) (sag, cd int, blocked bool) {
	if b.sagOccupied(0, now) {
		return 0, 0, true
	}
	for j := range b.cdBusy {
		if now < b.cdWrite[j] || now < b.cdBusy[j] {
			return 0, j, true
		}
	}
	for i := 1; i < len(b.sagBusy); i++ {
		if b.sagOccupied(i, now) {
			return i, 0, true
		}
	}
	return 0, 0, false
}

// sagOccupied reports whether SAG i is writing or busy at now.
func (b *Bank) sagOccupied(i int, now sim.Tick) bool {
	return now < b.sagWrite[i] || now < b.sagBusy[i]
}
