package core

import (
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/timing"
)

// gridWriteBlocker is writeBlocker as an O(SAGs × CDs) scan: the write's
// own (SAG, CD) pair, then, without Backgrounded Writes, every pair in
// row-major order, then whole-bank serialization. writeBlocker must
// agree with it on every bank state.
func gridWriteBlocker(b *Bank, s, c int, now sim.Tick) (telemetry.StallCause, bool) {
	classify := func(i, j int) (telemetry.StallCause, bool) {
		if now < b.sagWrite[i] || now < b.cdWrite[j] {
			return telemetry.StallWriteDrain, true
		}
		if now < b.sagBusy[i] {
			return telemetry.StallSAGConflict, true
		}
		if now < b.cdBusy[j] {
			return telemetry.StallCDConflict, true
		}
		return 0, false
	}
	if cause, blocked := classify(s, c); blocked {
		return cause, blocked
	}
	if !b.modes.BackgroundedWrites {
		for i := range b.sagBusy {
			for j := range b.cdBusy {
				if cause, blocked := classify(i, j); blocked {
					return cause, blocked
				}
			}
		}
	}
	if now < b.bankBusy && (!b.modes.BackgroundedWrites || !b.modes.MultiActivation) {
		cause, _ := b.bankBlocker(now)
		return cause, true
	}
	return 0, false
}

// Fuzz geometries: SAGs and CDs the scan must handle, from a single
// tile to a 64 × 32 grid.
var (
	fuzzSAGs = [...]int{1, 2, 8, 64}
	fuzzCDs  = [...]int{1, 2, 32}
)

// FuzzWriteBlockerScan checks the O(SAGs + CDs) writeBlocker against
// the grid scan, and CanWrite against "not blocked and tCCD met", on
// arbitrary timer states (modes, shape and timers as in fuzzBank). tile
// picks the write's (SAG, CD).
func FuzzWriteBlockerScan(f *testing.F) {
	// A bank a write without Backgrounded Writes left fully blocked:
	// every SAG and CD timer set, 8 × 2 tiles.
	full := make([]byte, 2*8+2*2)
	for i := range full {
		full[i] = 0xff
	}
	f.Add(uint8(0), uint8(2|1<<2), uint16(0), uint8(10), full)
	// Only a later SAG (5 of 8) is busy: the first blocked pair is
	// (5, 0), not the write's own.
	f.Add(uint8(0b0011), uint8(2|1<<2), uint16(0), uint8(4), []byte{0, 0, 0, 0, 0, 9})
	// On 64 × 32 tiles a later SAG (7) and a later CD (3) are busy: the
	// CD comes first in row-major order.
	both := make([]byte, 2*64+4)
	both[7], both[2*64+3] = 7, 9
	f.Add(uint8(0b0001), uint8(3|2<<2), uint16(0), uint8(3), both)
	f.Add(uint8(0b1111), uint8(3|2<<2), uint16(0x0102), uint8(0), []byte{1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, modes, shape uint8, tile uint16, now uint8, timers []byte) {
		b := fuzzBank(t, modes, shape, timers)
		sags, cds := b.geom.SAGs, b.geom.CDs
		s, c, at := int(tile&0xff)%sags, int(tile>>8)%cds, sim.Tick(now)
		gotCause, until := b.writeBlocker(s, c, at)
		gotBlocked := until != 0
		wantCause, wantBlocked := gridWriteBlocker(b, s, c, at)
		if gotCause != wantCause || gotBlocked != wantBlocked {
			t.Fatalf("%d×%d %+v, write to (%d, %d) at %d: scan gives (%v, %v), the grid gives (%v, %v)",
				sags, cds, b.modes, s, c, at, gotCause, gotBlocked, wantCause, wantBlocked)
		}
		// Row s lies in SAG s and column c in CD c.
		if got, want := b.CanWrite(s, c, at), !wantBlocked && at >= b.colReady[c]; got != want {
			t.Fatalf("%d×%d %+v: CanWrite(%d, %d, %d) = %v, want %v", sags, cds, b.modes, s, c, at, got, want)
		}
	})
}

// fuzzBank builds a bank for the fuzzers: modes' low four bits pick the
// access modes, shape picks SAGs (bits 0–1) and CDs (bits 2–3, modulo
// 3), and timers sets sagBusy, sagWrite, cdBusy, cdWrite, colReady,
// every segReady, bankBusy and writeEnd in that order, one byte each;
// timers past the end of the input stay 0. Every SAG holds two rows.
func fuzzBank(t *testing.T, modes, shape uint8, timers []byte) *Bank {
	t.Helper()
	sags, cds := fuzzSAGs[shape&3], fuzzCDs[(shape>>2)%3]
	b, err := NewBank(Config{
		Geom: addr.Geometry{Channels: 1, Ranks: 1, Banks: 1, Rows: 128, Cols: 32, LineBytes: 64, SAGs: sags, CDs: cds},
		Tim:  timing.Paper(),
		Modes: AccessModes{
			PartialActivation:  modes&1 != 0,
			MultiActivation:    modes&2 != 0,
			BackgroundedWrites: modes&4 != 0,
			LocalSenseAmps:     modes&8 != 0,
		},
		WriteDrivers: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := len(b.timers)
	vals := make([]sim.Tick, n+2)
	for i := 0; i < len(vals) && i < len(timers); i++ {
		vals[i] = sim.Tick(timers[i])
	}
	copy(b.timers, vals)
	b.bankBusy, b.writeEnd = vals[n], vals[n+1]
	return b
}

// FuzzStallClassBound checks the bound the stall classifiers return on
// arbitrary timers, latches and modes (fuzzBank's bytes). latches sets
// every SAG's row latch, then every [SAG][CD] segment latch, one byte
// each: 0 clears it, 1 and 2 select the SAG's first or second row.
// target picks the request's SAG, CD and which of the SAG's two rows.
// For a read and a write of that target it requires two things:
//
//   - the classifier's answer is the same at every tick in [now,
//     until), where until is its bound, and so is every predicate the
//     stall memo reads beside it (CanRead and NeedsActivate for a read,
//     ColumnReady for a write) below until lowered by ColumnReadyAt
//     when that lies above now;
//   - until is at least NextRelease(now): the bound is a timer above
//     now, never an earlier tick.
func FuzzStallClassBound(f *testing.F) {
	// FgNVM 8 × 2: CD 1 sensing for row 9 (SAG 1) until 40, its data
	// ready at 30, tCCD until 35, while SAG 3 writes until 90.
	timers := make([]byte, 2*8+3*2+8*2+2)
	timers[1], timers[8+3], timers[16+1], timers[16+2+3] = 40, 90, 40, 35
	timers[22+1*2+1] = 30
	f.Add(uint8(0b0111), uint8(2|1<<2), uint16(1|1<<8|1<<12), uint8(20), timers,
		[]byte{0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2})
	// The same bank with that segment sensed at 5 and CD 1 written
	// until 50: the read waits on the write drivers.
	timers = make([]byte, len(timers))
	timers[16+1], timers[16+2+1], timers[22+1*2+1] = 50, 50, 5
	f.Add(uint8(0b0111), uint8(2|1<<2), uint16(1|1<<8|1<<12), uint8(20), timers,
		[]byte{0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2})
	// A baseline bank whose whole-bank serialization outlasts its write
	// (bankBusy 60, writeEnd 50): an activation is write drain until
	// 50, then a SAG conflict until 60.
	f.Add(uint8(0), uint8(0), uint16(0), uint8(3), []byte{0, 0, 0, 0, 0, 0, 60, 50}, []byte{0})
	// SALP (local sense amps, no CD sense path) on 64 × 1 tiles.
	f.Add(uint8(0b1110), uint8(3), uint16(5), uint8(0), []byte{9, 0, 7, 0, 0, 0, 0, 0, 12}, []byte{2})
	f.Add(uint8(0b1111), uint8(3|2<<2), uint16(0x3f1f), uint8(1), []byte{1, 2, 3, 4, 5}, []byte{1, 2, 1, 2})
	f.Fuzz(func(t *testing.T, modes, shape uint8, target uint16, now uint8, timers, latches []byte) {
		b := fuzzBank(t, modes, shape, timers)
		sags, cds := b.geom.SAGs, b.geom.CDs
		latch := func(s int) int {
			v := 0
			if len(latches) > 0 {
				v, latches = int(latches[0]%3), latches[1:]
			}
			return [...]int{-1, s, s + sags}[v]
		}
		for s := range b.openRow {
			b.openRow[s] = latch(s)
		}
		for s := range b.openSeg {
			for c := range b.openSeg[s] {
				b.openSeg[s][c] = latch(s)
			}
		}
		s, c := int(target&0xff)%sags, int(target>>8&0xf)%cds
		row, col := s+sags*int(target>>12&1), c
		last := max(slices.Max(b.timers), b.bankBusy, b.writeEnd) // every timer has released after last
		at := sim.Tick(now)
		// An answer is the classifier's, then the predicates the memo
		// reads beside it.
		type answer struct {
			cause           telemetry.StallCause
			blocked, p1, p2 bool
		}
		read := func(t sim.Tick) (answer, sim.Tick) {
			cause, blocked, until := b.ReadStallCause(row, col, t)
			return answer{cause, blocked, b.CanRead(row, col, t), b.NeedsActivate(row, col, t)}, until
		}
		write := func(t sim.Tick) (answer, sim.Tick) {
			cause, blocked, until := b.WriteStallCause(row, col, t)
			return answer{cause, blocked, b.ColumnReady(col, t), false}, until
		}
		for _, op := range []struct {
			name     string
			classify func(sim.Tick) (answer, sim.Tick)
		}{{"read", read}, {"write", write}} {
			want, until := op.classify(at)
			if next := b.NextRelease(at); until < next {
				t.Fatalf("%d×%d %+v, %s of (%d, %d) at %d: bound %d is before NextRelease %d",
					sags, cds, b.modes, op.name, row, col, at, until, next)
			}
			column := until
			if ready := b.ColumnReadyAt(col); ready > at {
				column = min(until, ready)
			}
			for t2 := at + 1; t2 < until && t2 <= last+1; t2++ {
				got, _ := op.classify(t2)
				if got.cause != want.cause || got.blocked != want.blocked || t2 < column && got != want {
					t.Fatalf("%d×%d %+v, %s of (%d, %d): %+v at %d, bound %d (%d with tCCD), but %+v at %d",
						sags, cds, b.modes, op.name, row, col, want, at, until, column, got, t2)
				}
			}
		}
	})
}
