package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
	"repro/internal/timing"
)

// calendarShape is one bank shape with the access modes it runs.
type calendarShape struct {
	name  string
	geom  addr.Geometry
	modes AccessModes
	// exact requires the calendar to equal the full scan at every
	// probe; otherwise it need only be at or below it.
	exact bool
}

// calendarShapes lists the bank shapes of the evaluated designs — the
// 1×1 baseline, the paper's 8×2 FgNVM, SALP's 1-D subdivision (local
// sense amps, full-row activation) and the 4×4 test geometry — and
// then all 16 access-mode combinations on the 4×4 grid. Only the
// combinations with LocalSenseAmps, Partial-Activation and
// Multi-Activation can leave a stale tick behind (see Calendar).
func calendarShapes() []calendarShape {
	with := func(sags, cds int) addr.Geometry {
		g := testGeom()
		g.SAGs, g.CDs = sags, cds
		return g
	}
	shapes := []calendarShape{
		{"baseline-1x1", with(1, 1), AccessModes{}, true},
		{"fgnvm-8x2", with(8, 2), AllModes(), true},
		{"salp-8x1", with(8, 1), salpModes(), true},
		{"fgnvm-4x4", testGeom(), AllModes(), true},
	}
	for m := 0; m < 16; m++ {
		modes := AccessModes{
			PartialActivation:  m&1 != 0,
			MultiActivation:    m&2 != 0,
			BackgroundedWrites: m&4 != 0,
			LocalSenseAmps:     m&8 != 0,
		}
		gap := modes.LocalSenseAmps && modes.PartialActivation && modes.MultiActivation
		shapes = append(shapes, calendarShape{fmt.Sprintf("4x4-modes-%02d", m), testGeom(), modes, !gap})
	}
	return shapes
}

// TestCalendarMatchesScan drives each bank through a random legal
// command sequence one tick at a time and checks, at every tick, both
// before and after that tick's command, the calendar's next tick
// against a full scan of the bank's timers: never above it, and equal
// to it outside the one combination of modes that can leave a stale
// tick behind.
func TestCalendarMatchesScan(t *testing.T) {
	for si, sh := range calendarShapes() {
		t.Run(sh.name, func(t *testing.T) {
			g := sh.geom
			rng := rand.New(rand.NewSource(int64(7 + si)))
			b := MustNewBank(Config{Geom: g, Tim: timing.Paper(), Modes: sh.modes, WriteDrivers: 64})
			live, issued := 0, 0
			probe := func(now sim.Tick) {
				got, want := b.cal.Next(now), b.NextRelease(now)
				if got > want || sh.exact && got != want {
					t.Fatalf("tick %d: calendar says %d, full scan %d", now, got, want)
				}
				if want != sim.MaxTick {
					live++
				}
			}
			for now := sim.Tick(0); now < 20000; now++ {
				probe(now)
				if rng.Intn(6) != 0 {
					continue
				}
				// Sixteen rows cover every SAG and still revisit open
				// segments, so reads issue as well as activations.
				row, col := rng.Intn(16), rng.Intn(g.Cols)
				// Writes are rarer than reads and activations: one
				// holds its tile (the whole bank on 1×1) for ~500 ticks.
				switch op := rng.Intn(8); {
				case op < 3:
					// Like the controller, activate only what needs it.
					if b.NeedsActivate(row, col, now) && b.CanActivate(row, col, now) {
						b.Activate(row, col, now)
						issued++
					}
				case op < 7:
					if b.CanRead(row, col, now) {
						b.Read(row, col, now)
						issued++
					}
				default:
					if b.CanWrite(row, col, now) {
						b.Write(row, col, now)
						issued++
					}
				}
				probe(now)
			}
			if issued < 100 || live < 1000 {
				t.Fatalf("walk too thin: %d commands, %d probes with a live timer", issued, live)
			}
		})
	}
}
