package core

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/timing"
)

// testGeom: 4 SAGs x 4 CDs, 64 rows (16 per SAG), 16 cols (4 per CD).
func testGeom() addr.Geometry {
	return addr.Geometry{
		Channels: 1, Ranks: 1, Banks: 1,
		Rows: 64, Cols: 16, LineBytes: 64,
		SAGs: 4, CDs: 4,
	}
}

func fgBank(t *testing.T, modes AccessModes) *Bank {
	t.Helper()
	b, err := NewBank(Config{Geom: testGeom(), Tim: timing.Paper(), Modes: modes, WriteDrivers: 64})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBankValidation(t *testing.T) {
	if _, err := NewBank(Config{Geom: addr.Geometry{}, Tim: timing.Paper(), WriteDrivers: 64}); err == nil {
		t.Error("bad geometry accepted")
	}
	if _, err := NewBank(Config{Geom: testGeom(), Tim: timing.Timings{}, WriteDrivers: 64}); err == nil {
		t.Error("bad timings accepted")
	}
	if _, err := NewBank(Config{Geom: testGeom(), Tim: timing.Paper(), WriteDrivers: 0}); err == nil {
		t.Error("zero write drivers accepted")
	}
}

func TestMustNewBankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewBank with bad config did not panic")
		}
	}()
	MustNewBank(Config{})
}

func TestWritePulses(t *testing.T) {
	b := fgBank(t, AllModes())
	// 64-byte line = 512 bits over 64 drivers = 8 pulses.
	if got := b.WritePulses(); got != 8 {
		t.Errorf("WritePulses = %d, want 8", got)
	}
	// Occupancy = tCWD(3) + 8*tWP(60) + tWR(3) = 486 cycles.
	if got := b.WriteOccupancy(); got != 486 {
		t.Errorf("WriteOccupancy = %d, want 486", got)
	}
}

func TestActivateThenRead(t *testing.T) {
	b := fgBank(t, AllModes())
	if !b.NeedsActivate(5, 2, 0) {
		t.Fatal("fresh bank should need activation")
	}
	if !b.CanActivate(5, 2, 0) {
		t.Fatal("fresh bank should allow activation")
	}
	ready := b.Activate(5, 2, 0)
	if ready != timing.Paper().TRCD {
		t.Fatalf("activation ready at %d, want tRCD=%d", ready, timing.Paper().TRCD)
	}
	if b.CanRead(5, 2, ready-1) {
		t.Fatal("read allowed before sensing completed")
	}
	if !b.CanRead(5, 2, ready) {
		t.Fatal("read not allowed after sensing completed")
	}
	done := b.Read(5, 2, ready)
	want := ready + timing.Paper().ReadLatency
	if done != want {
		t.Fatalf("read done at %d, want %d", done, want)
	}
	// Row hit: same segment open, no activation needed.
	if b.NeedsActivate(5, 2, done) {
		t.Fatal("segment hit should not need activation")
	}
}

func TestPartialActivationOnlyOpensOneSegment(t *testing.T) {
	b := fgBank(t, AllModes())
	ready := b.Activate(5, 2, 0) // row 5 (SAG 1), col 2 (CD 2)
	// Another column of the SAME row in a different CD is NOT sensed:
	// this is underfetch.
	if !b.NeedsActivate(5, 3, ready) { // col 3 = CD 3
		t.Fatal("partial activation should not open other CDs (underfetch)")
	}
	// But the same CD's columns are all open (lines interleave: cols
	// 2, 6, 10, 14 share CD 2).
	if b.NeedsActivate(5, 6, ready) {
		t.Fatal("columns within the sensed segment should be open")
	}
}

func TestFullActivationOpensWholeRow(t *testing.T) {
	b := fgBank(t, AccessModes{}) // baseline: full-row sensing
	ready := b.Activate(5, 2, 0)
	for col := 0; col < testGeom().Cols; col++ {
		if b.NeedsActivate(5, col, ready) {
			t.Fatalf("full activation left col %d closed", col)
		}
	}
}

func TestFullActivationEnergyVsPartial(t *testing.T) {
	g := testGeom()
	efull := energy.New(energy.Config{})
	b1 := MustNewBank(Config{Geom: g, Tim: timing.Paper(), Modes: AccessModes{}, Energy: efull, WriteDrivers: 64})
	b1.Activate(0, 0, 0)
	epart := energy.New(energy.Config{})
	b2 := MustNewBank(Config{Geom: g, Tim: timing.Paper(), Modes: AllModes(), Energy: epart, WriteDrivers: 64})
	b2.Activate(0, 0, 0)

	if efull.BitsSensed() != uint64(g.RowBytes()*8) {
		t.Errorf("full activation sensed %d bits, want %d", efull.BitsSensed(), g.RowBytes()*8)
	}
	if epart.BitsSensed() != uint64(g.SegmentBytes()*8) {
		t.Errorf("partial activation sensed %d bits, want %d", epart.BitsSensed(), g.SegmentBytes()*8)
	}
	if epart.ReadPJ()*float64(g.CDs) != efull.ReadPJ() {
		t.Errorf("partial energy x CDs = %v, want %v", epart.ReadPJ()*float64(g.CDs), efull.ReadPJ())
	}
}

func TestMultiActivationDifferentSAGandCD(t *testing.T) {
	b := fgBank(t, AllModes())
	b.Activate(5, 2, 0) // SAG 1, CD 2
	// Different SAG (row 20 → SAG 0), different CD (col 7 → CD 3):
	// allowed in parallel.
	if !b.CanActivate(20, 7, 1) {
		t.Fatal("multi-activation to different SAG+CD should be allowed")
	}
	b.Activate(20, 7, 1)
}

func TestMultiActivationSameCDForbidden(t *testing.T) {
	b := fgBank(t, AllModes())
	b.Activate(5, 2, 0) // SAG 1, CD 2
	// Different SAG but same CD (col 6 → CD 2): forbidden while sensing.
	if b.CanActivate(20, 6, 1) {
		t.Fatal("activation in same CD during sensing must be forbidden (rule 2)")
	}
	// After the sense window (tRCD+tCAS) it is allowed.
	if !b.CanActivate(20, 6, b.SenseOccupancy()) {
		t.Fatal("activation in same CD after sensing should be allowed")
	}
}

func TestMultiActivationSameSAGForbidden(t *testing.T) {
	b := fgBank(t, AllModes())
	b.Activate(5, 2, 0) // SAG 1 (5 % 4)
	// Same SAG (row 9 → 9%4 = 1), different CD: forbidden while sensing.
	if b.CanActivate(9, 6, 1) {
		t.Fatal("second wordline in a sensing SAG must be forbidden (rule 3)")
	}
}

func TestNoMultiActivationSerializesBank(t *testing.T) {
	b := fgBank(t, AccessModes{PartialActivation: true}) // no multi-activation
	b.Activate(5, 2, 0)
	if b.CanActivate(20, 6, 1) {
		t.Fatal("without Multi-Activation the bank must serialize")
	}
	if !b.CanActivate(20, 6, b.SenseOccupancy()) {
		t.Fatal("bank should free after the sense window")
	}
}

func TestSameSAGNewRowInvalidatesOldSegments(t *testing.T) {
	b := fgBank(t, AllModes())
	b.Activate(5, 2, 0) // SAG 1, CD 0, row 5
	// Activate a different row in the same SAG (after the sense window).
	b.Activate(9, 6, b.SenseOccupancy()) // SAG 1, CD 1, row 9
	// Row 5's segment is gone: the SAG's row latch moved to row 6.
	if b.SegmentOpen(5, 2) {
		t.Fatal("old row's segment survived a wordline change in its SAG")
	}
}

func TestBackgroundedWriteBlocksOnlyItsSAGandCD(t *testing.T) {
	b := fgBank(t, AllModes())
	done := b.Write(5, 2, 0) // SAG 1, CD 2
	if done != b.WriteOccupancy() {
		t.Fatalf("write done at %d, want %d", done, b.WriteOccupancy())
	}
	now := sim.Tick(10)
	// Same CD (row 20 → SAG 0, col 6 → CD 2): blocked.
	if b.CanActivate(20, 6, now) {
		t.Fatal("activation in CD being written must be blocked")
	}
	// Same SAG (row 9 → SAG 1), different CD (col 7 → CD 3): blocked
	// until the write completes.
	if b.CanActivate(9, 7, now) {
		t.Fatal("activation in SAG being written must be blocked")
	}
	// Different SAG and CD: allowed — this is the backgrounded write win.
	if !b.CanActivate(20, 7, now) {
		t.Fatal("read path in other tiles must stay available during write")
	}
	ready := b.Activate(20, 7, now)
	if !b.CanRead(20, 7, ready) {
		t.Fatal("read during backgrounded write should proceed")
	}
}

func TestNonBackgroundedWriteSerializesBank(t *testing.T) {
	b := fgBank(t, AccessModes{PartialActivation: true, MultiActivation: true})
	b.Write(5, 2, 0)
	if b.CanActivate(20, 6, 10) {
		t.Fatal("without Backgrounded Writes a write must block the whole bank")
	}
	if !b.CanActivate(20, 6, b.WriteOccupancy()) {
		t.Fatal("bank should free after write completes")
	}
}

func TestWriteWaitsForInFlightOpsWhenNotBackgrounded(t *testing.T) {
	b := fgBank(t, AccessModes{PartialActivation: true, MultiActivation: true})
	b.Activate(20, 6, 0) // SAG 0, CD 1 sensing until tRCD+tCAS
	if b.CanWrite(5, 2, 1) {
		t.Fatal("non-backgrounded write must wait for all in-flight ops")
	}
	if !b.CanWrite(5, 2, b.SenseOccupancy()) {
		t.Fatal("write should proceed once bank is quiet")
	}
}

func TestWriteInvalidatesItsSegment(t *testing.T) {
	b := fgBank(t, AllModes())
	b.Activate(5, 2, 0)
	if !b.SegmentOpen(5, 2) {
		t.Fatal("segment should be open after activation")
	}
	b.Write(5, 2, b.SenseOccupancy())
	if b.SegmentOpen(5, 2) {
		t.Fatal("written segment must not be treated as sensed")
	}
}

func TestTCCDSpacing(t *testing.T) {
	b := fgBank(t, AllModes())
	ready := b.Activate(5, 2, 0) // opens segment CD 2 = cols {2,6,10,14}
	b.Read(5, 2, ready)
	if b.CanRead(5, 6, ready+1) {
		t.Fatal("second column command inside tCCD should be blocked")
	}
	if !b.CanRead(5, 6, ready+timing.Paper().TCCD) {
		t.Fatal("column command after tCCD should be allowed")
	}
}

func TestActivatePanicsOnViolation(t *testing.T) {
	b := fgBank(t, AllModes())
	b.Activate(5, 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting Activate did not panic")
		}
	}()
	b.Activate(9, 6, 1) // same SAG (9%4 == 5%4) mid-sense
}

func TestReadPanicsWhenClosed(t *testing.T) {
	b := fgBank(t, AllModes())
	defer func() {
		if recover() == nil {
			t.Fatal("Read of closed segment did not panic")
		}
	}()
	b.Read(5, 2, 100)
}

func TestWritePanicsOnViolation(t *testing.T) {
	b := fgBank(t, AllModes())
	b.Write(5, 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting Write did not panic")
		}
	}()
	b.Write(9, 6, 1) // same SAG and CD mid-write
}

func TestEnergyAccountingOnWrite(t *testing.T) {
	em := energy.New(energy.Config{})
	b := MustNewBank(Config{Geom: testGeom(), Tim: timing.Paper(), Modes: AllModes(), Energy: em, WriteDrivers: 64})
	b.Write(5, 2, 0)
	if em.BitsWritten() != 512 {
		t.Errorf("write charged %d bits, want 512", em.BitsWritten())
	}
	if em.WritePJ() != 512*energy.WritePJPerBit {
		t.Errorf("WritePJ = %v", em.WritePJ())
	}
}

func TestStatsCounters(t *testing.T) {
	b := fgBank(t, AllModes())
	r := b.Activate(5, 2, 0)
	b.Read(5, 2, r)
	b.Write(20, 7, r+timing.Paper().TCCD) // free SAG 0, free CD 3
	if b.Activations() != 1 || b.PartialActivations() != 1 || b.WritesIssued() != 1 {
		t.Fatalf("counters: acts=%d partial=%d writes=%d",
			b.Activations(), b.PartialActivations(), b.WritesIssued())
	}
}

func TestProjectionHelpers(t *testing.T) {
	b := fgBank(t, AllModes())
	if b.SAGOf(17) != 1 { // 16 rows per SAG
		t.Errorf("SAGOf(17) = %d, want 1", b.SAGOf(17))
	}
	if b.CDOf(9) != 1 { // 9 % 4 CDs
		t.Errorf("CDOf(9) = %d, want 1", b.CDOf(9))
	}
}

// TestProjectionMatchesGeometry pins the mask-based tile projection to
// addr.Geometry's modulo definition on every geometry these tests use,
// over a row and column range that wraps each subdivision many times.
func TestProjectionMatchesGeometry(t *testing.T) {
	for _, g := range calendarShapes()[:4] {
		b := MustNewBank(Config{Geom: g.geom, Tim: timing.Paper(), WriteDrivers: 64})
		for row := 0; row < 4*g.geom.Rows; row++ {
			if got, want := b.SAGOf(row), g.geom.SAG(row); got != want {
				t.Fatalf("%s: SAGOf(%d) = %d, want %d", g.name, row, got, want)
			}
		}
		for col := 0; col < 4*g.geom.Cols; col++ {
			if got, want := b.CDOf(col), g.geom.CD(col); got != want {
				t.Fatalf("%s: CDOf(%d) = %d, want %d", g.name, col, got, want)
			}
		}
	}
}

// refChecker is an independent oracle for the conflict rules: it records
// every operation as an interval on its SAG/CD/bank resources and checks
// that no two intervals overlap illegally. Within a SAG, two SENSES of
// the SAME row may overlap (the wordline is shared); any other pair of
// overlapping SAG operations is a violation. Within a CD the sense path
// is shared, so no two operations may ever overlap.
type refChecker struct {
	t      *testing.T
	modes  AccessModes
	sagIv  map[int][]opInterval
	cdIv   map[int][]opInterval
	bankIv []opInterval
}

type opInterval struct {
	start, end sim.Tick
	row        int
	write      bool
}

func newRefChecker(t *testing.T, modes AccessModes) *refChecker {
	return &refChecker{t: t, modes: modes,
		sagIv: make(map[int][]opInterval), cdIv: make(map[int][]opInterval)}
}

// overlaps reports whether a new op intersects any recorded interval;
// sameRowOK permits overlap between two non-write ops on the same row.
func overlaps(iv []opInterval, op opInterval, sameRowOK bool) bool {
	for _, i := range iv {
		if op.start < i.end && i.start < op.end {
			if sameRowOK && !op.write && !i.write && op.row == i.row {
				continue
			}
			return true
		}
	}
	return false
}

func (rc *refChecker) record(sag, cd int, op opInterval, wholeBank bool) {
	if overlaps(rc.sagIv[sag], op, true) {
		rc.t.Fatalf("illegal overlap in SAG %d at [%d,%d)", sag, op.start, op.end)
	}
	if overlaps(rc.cdIv[cd], op, false) {
		rc.t.Fatalf("illegal overlap in CD %d at [%d,%d)", cd, op.start, op.end)
	}
	if !rc.modes.MultiActivation || wholeBank {
		if overlaps(rc.bankIv, op, true) {
			rc.t.Fatalf("bank-serialized operations overlap at [%d,%d)", op.start, op.end)
		}
	}
	rc.sagIv[sag] = append(rc.sagIv[sag], op)
	rc.cdIv[cd] = append(rc.cdIv[cd], op)
	if !rc.modes.MultiActivation || wholeBank {
		rc.bankIv = append(rc.bankIv, op)
	}
}

// TestRandomOperationInvariants drives random legal command sequences
// through the bank and asserts, via the independent oracle, that the
// paper's conflict rules are never violated for any mode combination.
func TestRandomOperationInvariants(t *testing.T) {
	modesList := []AccessModes{
		{},
		{PartialActivation: true},
		{PartialActivation: true, MultiActivation: true},
		AllModes(),
		{MultiActivation: true, BackgroundedWrites: true},
	}
	g := testGeom()
	for mi, modes := range modesList {
		rng := rand.New(rand.NewSource(int64(42 + mi)))
		b := MustNewBank(Config{Geom: g, Tim: timing.Paper(), Modes: modes, WriteDrivers: 64})
		rc := newRefChecker(t, modes)
		now := sim.Tick(0)
		issued := 0
		for step := 0; step < 3000; step++ {
			row := rng.Intn(g.Rows)
			col := rng.Intn(g.Cols)
			sag, cd := b.SAGOf(row), b.CDOf(col)
			switch rng.Intn(3) {
			case 0:
				if b.CanActivate(row, col, now) {
					b.Activate(row, col, now)
					end := now + b.SenseOccupancy()
					op := opInterval{start: now, end: end, row: row}
					if modes.PartialActivation {
						rc.record(sag, cd, op, false)
					} else {
						// Full activation occupies every CD.
						for c := 0; c < g.CDs; c++ {
							if overlaps(rc.cdIv[c], op, false) {
								t.Fatalf("modes %d: full activation overlaps CD %d", mi, c)
							}
						}
						rc.record(sag, cd, op, false)
						for c := 0; c < g.CDs; c++ {
							if c != cd {
								rc.cdIv[c] = append(rc.cdIv[c], op)
							}
						}
					}
					issued++
				}
			case 1:
				if b.CanRead(row, col, now) {
					b.Read(row, col, now)
					issued++
				}
			case 2:
				if b.CanWrite(row, col, now) {
					end := b.Write(row, col, now)
					rc.record(sag, cd, opInterval{start: now, end: end, row: row, write: true}, !modes.BackgroundedWrites)
					issued++
				}
			}
			now += sim.Tick(rng.Intn(30))
		}
		if issued == 0 {
			t.Fatalf("modes %d: random walk issued nothing", mi)
		}
	}
}

// TestWriteTimersBoundedByBusyTimers checks the ordering CanActivate
// and CanWrite rely on when they read only the blocked result of the
// stall classifiers: every timer update keeps sagWrite <= sagBusy and
// cdWrite <= cdBusy, so "write-driving" implies "busy" and the
// classifiers' write-drain checks never block anything the busy checks
// would not. Random walks over every mode combination.
func TestWriteTimersBoundedByBusyTimers(t *testing.T) {
	g := testGeom()
	for m := 0; m < 16; m++ {
		modes := AccessModes{
			PartialActivation:  m&1 != 0,
			MultiActivation:    m&2 != 0,
			BackgroundedWrites: m&4 != 0,
			LocalSenseAmps:     m&8 != 0,
		}
		rng := rand.New(rand.NewSource(int64(m)))
		b := MustNewBank(Config{Geom: g, Tim: timing.Paper(), Modes: modes, WriteDrivers: 64})
		now := sim.Tick(0)
		for step := 0; step < 2000; step++ {
			row, col := rng.Intn(8)*(g.Rows/8), rng.Intn(g.Cols)
			switch rng.Intn(3) {
			case 0:
				// Like the controller, activate only what needs it.
				if b.NeedsActivate(row, col, now) && b.CanActivate(row, col, now) {
					b.Activate(row, col, now)
				}
			case 1:
				if b.CanRead(row, col, now) {
					b.Read(row, col, now)
				}
			case 2:
				if b.CanWrite(row, col, now) {
					b.Write(row, col, now)
				}
			}
			for s := range b.sagBusy {
				if b.sagWrite[s] > b.sagBusy[s] {
					t.Fatalf("%+v step %d: SAG %d write timer %d past busy timer %d", modes, step, s, b.sagWrite[s], b.sagBusy[s])
				}
			}
			for c := range b.cdBusy {
				if b.cdWrite[c] > b.cdBusy[c] {
					t.Fatalf("%+v step %d: CD %d write timer %d past busy timer %d", modes, step, c, b.cdWrite[c], b.cdBusy[c])
				}
			}
			now += sim.Tick(rng.Intn(12))
		}
	}
}

// salpModes is the DRAM-SALP configuration: 1-D multi-activation with
// per-subarray sense amplifiers.
func salpModes() AccessModes {
	return AccessModes{MultiActivation: true, BackgroundedWrites: true, LocalSenseAmps: true}
}

func TestLocalSenseAmpsAllowConcurrentSAGs(t *testing.T) {
	// SALP geometry: 4 SAGs, ONE CD.
	g := testGeom()
	g.CDs = 1
	b := MustNewBank(Config{Geom: g, Tim: timing.Paper(), Modes: salpModes(), WriteDrivers: 64})
	b.Activate(5, 2, 0) // SAG 1
	// A second activation in another SAG proceeds even though both use
	// the single CD: the subarrays sense locally.
	if !b.CanActivate(20, 6, 1) {
		t.Fatal("local sense amps should allow concurrent subarray activation")
	}
	b.Activate(20, 6, 1)
	// Without local sense amps the same pair must serialize on the CD.
	fg := MustNewBank(Config{Geom: g, Tim: timing.Paper(),
		Modes: AccessModes{MultiActivation: true, BackgroundedWrites: true}, WriteDrivers: 64})
	fg.Activate(5, 2, 0)
	if fg.CanActivate(20, 6, 1) {
		t.Fatal("bank-edge sensing must serialize on the shared CD path")
	}
}

// TestCanActivateRefusesReSense: an activation whose target segment is
// already open is refused while its SAG is still sensing, with or
// without local sense amps, and admitted once the sense ends.
func TestCanActivateRefusesReSense(t *testing.T) {
	for _, modes := range []AccessModes{AllModes(), salpModes()} {
		b := fgBank(t, modes)
		ready := b.Activate(8, 0, 0)
		for now := ready; now < b.SenseOccupancy(); now++ {
			if b.CanActivate(8, 0, now) {
				t.Fatalf("%+v: re-sense of an open segment admitted at %d, inside the %d-cycle sense window", modes, now, b.SenseOccupancy())
			}
		}
		if !b.CanActivate(8, 0, b.SenseOccupancy()) {
			t.Fatalf("%+v: activation still refused after the sense window", modes)
		}
	}
}

func TestLocalSenseAmpsPreserveOtherSAGSegments(t *testing.T) {
	g := testGeom()
	g.CDs = 1
	b := MustNewBank(Config{Geom: g, Tim: timing.Paper(), Modes: salpModes(), WriteDrivers: 64})
	r1 := b.Activate(5, 2, 0) // SAG 1
	b.Activate(20, 6, 1)      // SAG 0, same CD
	// Row 5's latched data survives in its subarray's local amps.
	if !b.SegmentOpen(5, 2) {
		t.Fatal("local sense amps lost another subarray's latched row")
	}
	if !b.CanRead(5, 2, r1) {
		t.Fatal("latched row should be readable")
	}
}

func TestLocalSenseAmpsStillBlockWrites(t *testing.T) {
	g := testGeom()
	g.CDs = 1
	b := MustNewBank(Config{Geom: g, Tim: timing.Paper(), Modes: salpModes(), WriteDrivers: 64})
	b.Write(5, 2, 0) // SAG 1, occupies the single CD's write drivers
	// A read elsewhere needs the shared column path: blocked during
	// the write even with local sense amps.
	ready := b.Activate(20, 6, 1) // different SAG: sensing is local, allowed
	if b.CanRead(20, 6, ready) {
		t.Fatal("column read during a write in the shared CD must wait")
	}
	if !b.CanRead(20, 6, b.WriteOccupancy()) {
		t.Fatal("read should proceed after the write completes")
	}
}

// TestBaselineDegenerateIsFullySerialized checks the 1x1 no-modes bank
// behaves like a classic single-row-buffer bank.
func TestBaselineDegenerateIsFullySerialized(t *testing.T) {
	g := testGeom()
	g.SAGs, g.CDs = 1, 1
	b := MustNewBank(Config{Geom: g, Tim: timing.Paper(), Modes: AccessModes{}, WriteDrivers: 64})
	ready := b.Activate(5, 2, 0)
	// Whole row open.
	for col := 0; col < g.Cols; col++ {
		if b.NeedsActivate(5, col, ready) {
			t.Fatalf("col %d closed after full activation", col)
		}
	}
	// Any other row activation must wait for the sense window.
	if b.CanActivate(9, 0, b.SenseOccupancy()-1) {
		t.Fatal("1x1 bank allowed a second activation mid-sense")
	}
	// A write blocks everything.
	wdone := b.Write(9, 0, b.SenseOccupancy())
	if b.CanActivate(5, 2, wdone-1) {
		t.Fatal("1x1 bank allowed activation during write")
	}
	if !b.CanActivate(5, 2, wdone) {
		t.Fatal("1x1 bank blocked after write completed")
	}
}
