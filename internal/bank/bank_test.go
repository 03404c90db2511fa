package bank

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/timing"
)

// Baseline models the state-of-the-art NVM prototype bank: a single row
// buffer per bank, every activation senses the full row, and any
// operation (sense or write) serializes the whole bank. It exists
// separately from the degenerate 1×1 core.Bank so the two can
// cross-validate each other.
type Baseline struct {
	tim timing.Timings

	openRow   int
	busyUntil sim.Tick // sense or write occupancy (blocks new row operations)
	writeBusy sim.Tick // write occupancy (blocks column reads too)
	segReady  sim.Tick
	colReady  sim.Tick
	pulses    sim.Tick

	acts   uint64
	writes uint64

	// inv re-checks serialization as the degenerate 1×1 tile grid.
	// Only non-nil under the fgnvm_invariants build tag.
	inv *invariant.TileTracker
}

// NewBaseline builds a baseline bank. writeDrivers is the number of bits
// programmed in parallel (Table 2: 64).
func NewBaseline(g addr.Geometry, t timing.Timings, writeDrivers int) (*Baseline, error) {
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
		tim:     t,
		openRow: -1,
		pulses:  sim.Tick((lineBits + writeDrivers - 1) / writeDrivers),
	}
	if invariant.Enabled {
		b.inv = invariant.NewTileTracker(1, 1, false)
	}
	return b, nil
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
	return now + b.tim.ReadLatency
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
	return done
}

// Activations returns the number of activations issued.
func (b *Baseline) Activations() uint64 { return b.acts }

// Writes returns the number of writes issued.
func (b *Baseline) Writes() uint64 { return b.writes }

func geom() addr.Geometry {
	return addr.Geometry{
		Channels: 1, Ranks: 1, Banks: 1,
		Rows: 64, Cols: 16, LineBytes: 64,
		SAGs: 1, CDs: 1,
	}
}

func TestNewBaselineValidation(t *testing.T) {
	if _, err := NewBaseline(addr.Geometry{}, timing.Paper(), 64); err == nil {
		t.Error("bad geometry accepted")
	}
	if _, err := NewBaseline(geom(), timing.Timings{}, 64); err == nil {
		t.Error("bad timings accepted")
	}
	if _, err := NewBaseline(geom(), timing.Paper(), 0); err == nil {
		t.Error("zero drivers accepted")
	}
}

func TestBaselineActivateReadWrite(t *testing.T) {
	b, err := NewBaseline(geom(), timing.Paper(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if !b.NeedsActivate(5, 0) {
		t.Fatal("fresh bank should need activation")
	}
	ready := b.Activate(5, 0)
	if ready != 10 {
		t.Fatalf("ready = %d, want tRCD=10", ready)
	}
	if b.CanRead(5, ready-1) {
		t.Fatal("read before sensing done")
	}
	done := b.Read(5, ready)
	if done != ready+42 {
		t.Fatalf("read done = %d, want %d", done, ready+42)
	}
	// Row hit.
	if b.NeedsActivate(5, done) {
		t.Fatal("open row should hit")
	}
	// Row miss needs re-activation.
	if !b.NeedsActivate(6, done) {
		t.Fatal("different row should miss")
	}
	wdone := b.Write(6, done)
	if wdone != done+3+8*60+3 {
		t.Fatalf("write done = %d, want tCWD+8*tWP+tWR later", wdone)
	}
	if b.CanActivate(wdone - 1) {
		t.Fatal("bank free during write")
	}
	if b.Activations() != 1 || b.Writes() != 1 {
		t.Fatalf("counters %d/%d", b.Activations(), b.Writes())
	}
}

func TestBaselineWriteInvalidatesOpenRow(t *testing.T) {
	b, _ := NewBaseline(geom(), timing.Paper(), 64)
	b.Activate(5, 0)
	senseEnd := timing.Paper().TRCD + timing.Paper().TCAS
	wdone := b.Write(5, senseEnd)
	if !b.NeedsActivate(5, wdone) {
		t.Fatal("row buffer should be stale after writing the open row")
	}
}

func TestBaselineSensingOccupiesBank(t *testing.T) {
	b, _ := NewBaseline(geom(), timing.Paper(), 64)
	ready := b.Activate(5, 0)
	// Column reads of the sensing row pipeline within the window...
	if !b.CanRead(5, ready) {
		t.Fatal("column read should pipeline during sensing")
	}
	// ...but a new row operation must wait out the full sense window.
	senseEnd := timing.Paper().TRCD + timing.Paper().TCAS
	if b.CanActivate(senseEnd - 1) {
		t.Fatal("second activation allowed during the sense window")
	}
	if !b.CanActivate(senseEnd) {
		t.Fatal("bank should free at the end of the sense window")
	}
}

func TestBaselinePanicsOnViolations(t *testing.T) {
	b, _ := NewBaseline(geom(), timing.Paper(), 64)
	b.Activate(5, 0)
	for name, fn := range map[string]func(){
		"activate-busy": func() { b.Activate(6, 1) },
		"read-miss":     func() { b.Read(9, 50) },
		"write-busy":    func() { b.Write(5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestBaselineMatchesDegenerateCore cross-validates the independent
// Baseline implementation against the 1x1 core.Bank with all modes off:
// for a long random legal schedule both must agree on every permission
// query and every completion time.
func TestBaselineMatchesDegenerateCore(t *testing.T) {
	g := geom()
	base, err := NewBaseline(g, timing.Paper(), 64)
	if err != nil {
		t.Fatal(err)
	}
	fg := core.MustNewBank(core.Config{Geom: g, Tim: timing.Paper(), Modes: core.AccessModes{}, WriteDrivers: 64})

	rng := rand.New(rand.NewSource(7))
	now := sim.Tick(0)
	ops := 0
	for step := 0; step < 5000; step++ {
		row := rng.Intn(g.Rows)
		col := rng.Intn(g.Cols)
		switch rng.Intn(3) {
		case 0:
			cb, cf := base.CanActivate(now), fg.CanActivate(row, col, now)
			if cb != cf {
				t.Fatalf("step %d: CanActivate diverged base=%v core=%v (now=%d)", step, cb, cf, now)
			}
			if cb {
				rb, rf := base.Activate(row, now), fg.Activate(row, col, now)
				if rb != rf {
					t.Fatalf("step %d: Activate ready diverged %d vs %d", step, rb, rf)
				}
				ops++
			}
		case 1:
			cb, cf := base.CanRead(row, now), fg.CanRead(row, col, now)
			if cb != cf {
				t.Fatalf("step %d: CanRead diverged base=%v core=%v (row=%d now=%d)", step, cb, cf, row, now)
			}
			if cb {
				rb, rf := base.Read(row, now), fg.Read(row, col, now)
				if rb != rf {
					t.Fatalf("step %d: Read done diverged %d vs %d", step, rb, rf)
				}
				ops++
			}
		case 2:
			cb, cf := base.CanWrite(now), fg.CanWrite(row, col, now)
			if cb != cf {
				t.Fatalf("step %d: CanWrite diverged base=%v core=%v (now=%d)", step, cb, cf, now)
			}
			if cb {
				rb, rf := base.Write(row, now), fg.Write(row, col, now)
				if rb != rf {
					t.Fatalf("step %d: Write done diverged %d vs %d", step, rb, rf)
				}
				ops++
			}
		}
		now += sim.Tick(rng.Intn(25))
	}
	if ops < 100 {
		t.Fatalf("cross-validation exercised only %d ops", ops)
	}
	if base.Activations() != fg.Activations() || base.Writes() != fg.WritesIssued() {
		t.Fatalf("op counts diverged: acts %d/%d writes %d/%d",
			base.Activations(), fg.Activations(), base.Writes(), fg.WritesIssued())
	}
}

func TestManyBanksGeometry(t *testing.T) {
	g := addr.PaperGeometry() // 8 banks, 4x4 → 128 banks
	mg, err := ManyBanksGeometry(g)
	if err != nil {
		t.Fatal(err)
	}
	if mg.Banks != 128 {
		t.Errorf("Banks = %d, want 128 (Figure 4's comparison point)", mg.Banks)
	}
	if mg.Rows != g.Rows/4 || mg.Cols != g.Cols/4 {
		t.Errorf("bank shape = %dx%d, want (SAG,CD)-pair sized", mg.Rows, mg.Cols)
	}
	if mg.SAGs != 1 || mg.CDs != 1 {
		t.Errorf("subdivisions = %dx%d, want 1x1", mg.SAGs, mg.CDs)
	}
	if mg.TotalBytes() != g.TotalBytes() {
		t.Errorf("capacity changed: %d vs %d", mg.TotalBytes(), g.TotalBytes())
	}
}

func TestManyBanksGeometryRejectsBad(t *testing.T) {
	if _, err := ManyBanksGeometry(addr.Geometry{}); err == nil {
		t.Error("bad geometry accepted")
	}
	// CDs == Cols makes each derived bank 1 column wide — still valid.
	g := geom()
	g.SAGs, g.CDs = 4, 16
	if _, err := ManyBanksGeometry(g); err != nil {
		t.Errorf("edge geometry rejected: %v", err)
	}
}
