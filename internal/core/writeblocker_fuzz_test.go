package core

import (
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
		return b.bankBlocker(now), true
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
// arbitrary timer states. modes' low four bits pick the access modes,
// shape picks SAGs (bits 0–1) and CDs (bits 2–3, modulo 3), tile picks
// the write's (SAG, CD), and timers sets sagBusy, sagWrite, cdBusy,
// cdWrite, colReady, every segReady, bankBusy and writeEnd in that
// order, one byte each; timers past the end of the input stay 0.
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
		sags, cds := fuzzSAGs[shape&3], fuzzCDs[(shape>>2)%3]
		b, err := NewBank(Config{
			Geom: addr.Geometry{Channels: 1, Ranks: 1, Banks: 1, Rows: 64, Cols: 32, LineBytes: 64, SAGs: sags, CDs: cds},
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

		s, c, at := int(tile&0xff)%sags, int(tile>>8)%cds, sim.Tick(now)
		gotCause, gotBlocked := b.writeBlocker(s, c, at)
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
