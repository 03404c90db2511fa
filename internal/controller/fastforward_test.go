// Unit tests for the controller's fast-forward support surface:
// NextWork (the next scheduling-predicate flip), SkipCycles (batch
// crediting), and their zero-allocation guarantees. The end-to-end
// byte-identity of fast-forwarded runs is pinned at the package-fgnvm
// level; these tests pin the per-component contracts the run loop
// leans on.

package controller

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/timing"
)

// loadMixed enqueues a read/write mix across banks and tiles.
func loadMixed(t *testing.T, c *Controller, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		op := mem.Read
		if i%3 == 0 {
			op = mem.Write
		}
		r := &mem.Request{ID: uint64(i + 1), Addr: addrFor(t, c, i%8, i%16, i%2), Op: op}
		if !c.Enqueue(r, 0) {
			t.Fatalf("request %d rejected", i)
		}
	}
}

// TestNextWorkNeverSkipsAnIssue is the exactness contract from the
// scheduler's side: at any quiescent tick (Cycle issued nothing),
// nothing may issue strictly before min(NextWork, next engine event) —
// otherwise a fast-forwarded run would skip a command a cycle-by-cycle
// run performs. Driven over a full mixed-traffic drain so the check
// covers bank-timer flips, bus-release flips, and the write-drain
// hysteresis edge.
func TestNextWorkNeverSkipsAnIssue(t *testing.T) {
	c, eng := newCtrl(t, core.AllModes(), 1)
	loadMixed(t, c, 24)
	var pending sim.Tick // earliest allowed next-issue tick; 0 = no claim
	for now := sim.Tick(0); now < 100_000; now++ {
		eng.RunUntil(now)
		issued := c.Cycle(now)
		if issued > 0 && pending > 0 && now < pending {
			t.Fatalf("issue at tick %d inside a window NextWork declared idle until %d", now, pending)
		}
		if issued > 0 {
			pending = 0
		} else if c.Pending() > 0 {
			w := c.NextWork(now)
			if e := eng.NextEventTick(); e < w {
				w = e
			}
			if w <= now {
				t.Fatalf("NextWork(%d) = %d, not in the future", now, w)
			}
			pending = w
		}
		if c.Drained() && eng.Pending() == 0 {
			return
		}
	}
	t.Fatal("drain did not finish")
}

// TestCalendarMatchesAllBanks checks the channel's release calendar
// against every bank at every tick of bursty traffic on eight banks:
// its next tick must equal the least NextRelease over all banks, both
// while banks are busy and after every timer has expired. Baseline,
// FgNVM and SALP modes.
func TestCalendarMatchesAllBanks(t *testing.T) {
	salp := core.AccessModes{MultiActivation: true, BackgroundedWrites: true, LocalSenseAmps: true}
	for mi, modes := range []core.AccessModes{{}, core.AllModes(), salp} {
		g := testGeom()
		g.Banks = 8
		eng := sim.NewEngine()
		c, err := New(Config{Geom: g, Tim: timing.Paper(), Modes: modes, Interleave: addr.RowBankRankChanCol}, eng)
		if err != nil {
			t.Fatal(err)
		}
		m := addr.MustNewMapper(g, addr.RowBankRankChanCol)
		rng := rand.New(rand.NewSource(int64(mi)))
		s := &c.shards[0]
		id, live, quiet := uint64(0), 0, 0
		for now := sim.Tick(0); now < 20_000; now++ {
			eng.RunUntil(now)
			if now%500 == 0 {
				// A burst of reads and writes, then silence long
				// enough for every bank to go quiet.
				for k := 0; k < 12; k++ {
					id++
					op := mem.Read
					if rng.Intn(3) == 0 {
						op = mem.Write
					}
					c.Enqueue(&mem.Request{ID: id, Op: op, Addr: m.Encode(addr.Location{
						Bank: rng.Intn(g.Banks), Row: rng.Intn(g.Rows), Col: rng.Intn(g.Cols),
					})}, now)
				}
			}
			c.Cycle(now)
			got := s.nextBankFlip(now)
			want := sim.MaxTick
			for _, b := range s.banks {
				want = min(want, b.NextRelease(now))
			}
			if got != want {
				t.Fatalf("modes %+v tick %d: calendar says %d, all-bank minimum %d", modes, now, got, want)
			}
			if want == sim.MaxTick {
				quiet++
			} else {
				live++
			}
		}
		if live == 0 || quiet == 0 {
			t.Fatalf("modes %+v: %d ticks with a live timer, %d with none", modes, live, quiet)
		}
	}
}

// TestSkipCyclesMatchesPerCycleCounters drives two identical
// controllers through the same quiescent window — one cycle-by-cycle,
// one via a single SkipCycles batch — and requires identical counter
// state afterward. This is the unit-level version of the run loop's
// batch-crediting step.
func TestSkipCyclesMatchesPerCycleCounters(t *testing.T) {
	mk := func() (*Controller, *sim.Engine) {
		c, eng := newCtrl(t, core.AllModes(), 1)
		loadMixed(t, c, 24)
		return c, eng
	}
	stepped, sEng := mk()
	batched, bEng := mk()

	// Advance both to the first quiescent tick with work pending.
	var now sim.Tick
	for ; now < 10_000; now++ {
		sEng.RunUntil(now)
		bEng.RunUntil(now)
		si := stepped.Cycle(now)
		bi := batched.Cycle(now)
		if si != bi {
			t.Fatalf("controllers diverged before the skip: issued %d vs %d at %d", si, bi, now)
		}
		if si == 0 && stepped.Pending() > 0 {
			break
		}
	}
	w := stepped.NextWork(now)
	if e := sEng.NextEventTick(); e < w {
		w = e
	}
	n := uint64(w - now - 1)
	if n == 0 {
		t.Skipf("no idle window at tick %d", now)
	}

	// Stepped controller executes the window; batched one skips it.
	for tick := now + 1; tick < w; tick++ {
		sEng.RunUntil(tick)
		if issued := stepped.Cycle(tick); issued != 0 {
			t.Fatalf("NextWork(%d)=%d but tick %d issued %d commands", now, w, tick, issued)
		}
	}
	batched.SkipCycles(now, n)

	ss, bs := stepped.Stats(), batched.Stats()
	if ss.QueuedWaitCycles.Value() != bs.QueuedWaitCycles.Value() {
		t.Errorf("QueuedWaitCycles: stepped %d, batched %d",
			ss.QueuedWaitCycles.Value(), bs.QueuedWaitCycles.Value())
	}
}

// TestFastForwardProbesZeroAllocs guards the probe paths the run loop
// hits on every candidate jump: NextWork, SkipCycles (telemetry
// detached), and WouldAccept must not allocate — a fast-forwarded run
// is supposed to be *cheaper* than a cycle-by-cycle one.
func TestFastForwardProbesZeroAllocs(t *testing.T) {
	c, _ := newCtrl(t, core.AllModes(), 1)
	loadMixed(t, c, 24)
	c.Cycle(1) // populate bank state so NextWork scans live timers
	probe := &mem.Request{ID: 999, Addr: addrFor(t, c, 3, 3, 1), Op: mem.Read}
	now := sim.Tick(1)
	if allocs := testing.AllocsPerRun(200, func() {
		now++
		_ = c.NextWork(now)
		c.SkipCycles(now, 1)
		_ = c.WouldAccept(probe)
	}); allocs != 0 {
		t.Errorf("fast-forward probe paths: %.1f allocs/op, want 0", allocs)
	}
}
