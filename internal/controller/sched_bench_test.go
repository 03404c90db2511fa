package controller

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/timing"
)

// saturatedHarness keeps a controller's queues topped up from a request
// pool, modelling the steady state the hot path optimizations target: a
// backlogged channel where every Cycle has arbitration work to do and
// every completion immediately admits a replacement request.
type saturatedHarness struct {
	eng   *sim.Engine
	c     *Controller
	pool  *mem.Pool
	addrs []uint64
	id    uint64
	k     int
	fill  func(now sim.Tick)
}

func newSaturatedHarness(tb testing.TB) *saturatedHarness {
	tb.Helper()
	return newStalledHarness(tb, nil)
}

// newStalledHarness is newSaturatedHarness with att, when non-nil, as
// the stall consumer.
func newStalledHarness(tb testing.TB, att *telemetry.Attribution) *saturatedHarness {
	tb.Helper()
	eng := sim.NewEngine()
	c, err := New(Config{
		Geom: testGeom(), Tim: timing.Paper(), Modes: core.AllModes(),
		IssueLanes: 1, Interleave: addr.RowBankRankChanCol, Attribution: att,
	}, eng)
	if err != nil {
		tb.Fatal(err)
	}
	h := &saturatedHarness{eng: eng, c: c, pool: mem.NewPool(80)}
	m := addr.MustNewMapper(c.Config().Geom, c.Config().Interleave)
	// A fixed address walk touching both banks and many (SAG, CD)
	// tiles, so FR-FCFS sees row hits, conflicts and clobber checks.
	h.addrs = make([]uint64, 256)
	for i := range h.addrs {
		h.addrs[i] = m.Encode(addr.Location{
			Bank: i % 2, Row: (i * 7) % 64, Col: (i * 3) % 16,
		})
	}
	retire := func(r *mem.Request, _ sim.Tick) { h.pool.Put(r) }
	h.fill = func(now sim.Tick) {
		for {
			r := h.pool.Get()
			h.id++
			r.ID = h.id
			r.Op = mem.Read
			if h.id%4 == 0 {
				r.Op = mem.Write
			}
			r.Addr = h.addrs[h.k%len(h.addrs)]
			r.OnComplete = retire
			if !h.c.Enqueue(r, now) {
				h.pool.Put(r) // backpressure: park it for the next admit
				return
			}
			h.k++
		}
	}
	return h
}

// step advances one controller cycle: deliver due events, arbitrate,
// and re-saturate the queues.
func (h *saturatedHarness) step(now sim.Tick) {
	h.eng.RunUntil(now)
	h.c.Cycle(now)
	h.fill(now)
}

// TestSaturatedSteadyStateZeroAlloc is the integration-level pooling
// guard: once the pool and the event heap are warm, the full
// issue→complete→retire loop — enqueue from pool, FR-FCFS arbitration,
// bank commands, completion events, retire back to pool — performs zero
// allocations per cycle. This is what makes the busy-path overhaul
// stick: no component hides per-request garbage.
func TestSaturatedSteadyStateZeroAlloc(t *testing.T) {
	h := newSaturatedHarness(t)
	now := sim.Tick(0)
	h.fill(0)
	// Warm-up: let the pool and the event heap reach their high-water
	// marks (in-flight population is bounded by the queue capacities).
	for ; now < 4096; now++ {
		h.step(now)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		now++
		h.step(now)
	})
	if allocs != 0 {
		t.Errorf("saturated issue→complete→retire cycle allocates %.2f/op, want 0", allocs)
	}
}

// BenchmarkCycleSaturated tracks the cost of one controller cycle under
// a backlogged queue — the busy-path complement to BenchmarkCycleNoSink
// (idle path). The CI bench-smoke step runs it once to keep it honest.
func BenchmarkCycleSaturated(b *testing.B) {
	h := newSaturatedHarness(b)
	now := sim.Tick(0)
	h.fill(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		h.step(now)
	}
}

// BenchmarkNextWork measures one fast-forward probe (ns/op) on the
// paper's 8×2 FgNVM channel and on its 128-bank many-banks counterpart.
// The write queue is kept full of writes spread over every bank and the
// controller cycles until one cycle issues nothing — the state in which
// the run loop probes — and the timed loop then repeats that probe.
func BenchmarkNextWork(b *testing.B) {
	paper := addr.PaperGeometry()
	paper.SAGs, paper.CDs = 8, 2
	many, err := bank.ManyBanksGeometry(paper)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []struct {
		name  string
		geom  addr.Geometry
		modes core.AccessModes
	}{
		{"fgnvm", paper, core.AllModes()},
		{"manybanks", many, core.AccessModes{}},
	} {
		b.Run(d.name, func(b *testing.B) {
			eng := sim.NewEngine()
			c, err := New(Config{
				Geom: d.geom, Tim: timing.Paper(), Modes: d.modes,
				Interleave: addr.RowBankRankChanCol,
			}, eng)
			if err != nil {
				b.Fatal(err)
			}
			m := addr.MustNewMapper(d.geom, addr.RowBankRankChanCol)
			nb := d.geom.Ranks * d.geom.Banks
			id := 0
			fill := func(now sim.Tick) {
				for {
					id++
					w := &mem.Request{ID: uint64(id), Op: mem.Write, Addr: m.Encode(addr.Location{
						Bank: id % nb, Row: (id * 7) % d.geom.Rows, Col: (id * 3) % d.geom.Cols,
					})}
					if !c.Enqueue(w, now) {
						return
					}
				}
			}
			now := sim.Tick(0)
			fill(now)
			for {
				eng.RunUntil(now)
				if c.Cycle(now) == 0 && now >= 1000 {
					break
				}
				fill(now)
				now++
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = c.NextWork(now)
			}
		})
	}
}
