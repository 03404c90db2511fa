package core

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
	"repro/internal/timing"
)

// flipGeometry is one bank shape with the access modes its design runs.
type flipGeometry struct {
	name  string
	geom  addr.Geometry
	modes AccessModes
}

// flipGeometries lists the bank shapes of the evaluated designs: the
// 1×1 baseline, the paper's 8×2 FgNVM, SALP's 1-D subdivision (local
// sense amps, full-row activation) and the 4×4 test geometry.
func flipGeometries() []flipGeometry {
	with := func(sags, cds int) addr.Geometry {
		g := testGeom()
		g.SAGs, g.CDs = sags, cds
		return g
	}
	return []flipGeometry{
		{"baseline-1x1", with(1, 1), AccessModes{}},
		{"fgnvm-8x2", with(8, 2), AllModes()},
		{"salp-8x1", with(8, 1), salpModes()},
		{"fgnvm-4x4", testGeom(), AllModes()},
	}
}

// TestNextReleaseCacheMatchesScan drives each bank through a random
// legal command sequence one tick at a time and checks, at every tick,
// both before and after that tick's command, that the cached
// NextRelease answer equals a fresh full scan of the timers. It also
// requires the walk to have answered most probes from the cache, so the
// check covers the hit path and not just the scan.
func TestNextReleaseCacheMatchesScan(t *testing.T) {
	for gi, fg := range flipGeometries() {
		t.Run(fg.name, func(t *testing.T) {
			g := fg.geom
			rng := rand.New(rand.NewSource(int64(7 + gi)))
			b := MustNewBank(Config{Geom: g, Tim: timing.Paper(), Modes: fg.modes, WriteDrivers: 64})
			probes, hits, issued := 0, 0, 0
			probe := func(now sim.Tick) {
				probes++
				if now < b.flip {
					hits++
				}
				if got, want := b.NextRelease(now), b.scanRelease(now); got != want {
					t.Fatalf("tick %d: NextRelease = %d, full scan = %d", now, got, want)
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
			if issued < 100 || hits < probes/2 {
				t.Fatalf("walk too thin: %d commands, %d of %d probes hit the cache", issued, hits, probes)
			}
		})
	}
}
