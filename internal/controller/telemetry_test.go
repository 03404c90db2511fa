package controller

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/timing"
)

// recordingSink records every event it receives.
type recordingSink struct {
	commands []telemetry.Command
	requests []telemetry.RequestEvent
}

func (r *recordingSink) Command(ev telemetry.Command) { r.commands = append(r.commands, ev) }
func (r *recordingSink) Request(ev telemetry.RequestEvent) {
	r.requests = append(r.requests, ev)
}

func newCtrlSink(t *testing.T, sink telemetry.Sink, att *telemetry.Attribution) (*Controller, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := New(Config{
		Geom: testGeom(), Tim: timing.Paper(), Modes: core.AllModes(),
		IssueLanes: 1, Interleave: addr.RowBankRankChanCol,
		Telemetry: sink, Attribution: att,
	}, eng)
	if err != nil {
		t.Fatal(err)
	}
	return c, eng
}

// TestTelemetryConservation drives a bursty workload and checks, at the
// controller level, the attribution invariant: one in-queue cause per
// queued request per cycle, so Attribution's in-queue total equals the
// QueuedWaitCycles counter exactly.
func TestTelemetryConservation(t *testing.T) {
	sink := &recordingSink{}
	att := telemetry.NewAttribution(testGeom())
	c, eng := newCtrlSink(t, sink, att)

	reqs := make([]*mem.Request, 0, 24)
	for i := 0; i < 24; i++ {
		op := mem.Read
		if i%3 == 0 {
			op = mem.Write
		}
		r := &mem.Request{ID: uint64(i + 1), Addr: addrFor(t, c, i%8, i%16, i%2), Op: op}
		if !c.Enqueue(r, 0) {
			t.Fatalf("request %d rejected", i)
		}
		reqs = append(reqs, r)
	}
	run(c, eng, 100_000)
	if !c.Drained() {
		t.Fatal("controller did not drain")
	}

	var inQueue uint64
	for cause, n := range att.Causes() {
		if telemetry.StallCause(cause) != telemetry.StallQueueFull {
			inQueue += n
		}
	}
	if want := c.Stats().QueuedWaitCycles.Value(); inQueue != want || inQueue == 0 {
		t.Errorf("attributed in-queue cycles %d != queued-wait cycles %d", inQueue, want)
	}
	var completed int
	for _, ev := range sink.requests {
		if ev.Phase == telemetry.ReqCompleted {
			completed++
		}
	}
	if completed != len(reqs) {
		t.Errorf("completed events %d, want %d", completed, len(reqs))
	}
	if len(sink.commands) == 0 {
		t.Error("no command spans recorded")
	}
	for _, ev := range sink.commands {
		if ev.End < ev.Start {
			t.Fatalf("command span ends before it starts: %+v", ev)
		}
	}
}

// TestTelemetryIsObservational proves attaching a sink changes nothing
// about scheduling: identical workloads with and without telemetry
// produce identical statistics and drain at the same cycle.
func TestTelemetryIsObservational(t *testing.T) {
	drive := func(sink telemetry.Sink, att *telemetry.Attribution) (Stats, sim.Tick) {
		c, eng := newCtrlSink(t, sink, att)
		for i := 0; i < 24; i++ {
			op := mem.Read
			if i%3 == 0 {
				op = mem.Write
			}
			r := &mem.Request{ID: uint64(i + 1), Addr: addrFor(t, c, i%8, i%16, i%2), Op: op}
			if !c.Enqueue(r, 0) {
				t.Fatalf("request %d rejected", i)
			}
		}
		end := run(c, eng, 100_000)
		st := *c.Stats()
		return st, end
	}
	plain, endPlain := drive(nil, nil)
	traced, endTraced := drive(&recordingSink{}, telemetry.NewAttribution(testGeom()))
	if endPlain != endTraced {
		t.Errorf("drain cycle changed under telemetry: %d vs %d", endPlain, endTraced)
	}
	for _, cmp := range []struct {
		name string
		a, b uint64
	}{
		{"Reads", plain.Reads.Value(), traced.Reads.Value()},
		{"Writes", plain.Writes.Value(), traced.Writes.Value()},
		{"Activations", plain.Activations.Value(), traced.Activations.Value()},
		{"ColumnReads", plain.ColumnReads.Value(), traced.ColumnReads.Value()},
		{"SegmentHits", plain.SegmentHits.Value(), traced.SegmentHits.Value()},
		{"QueuedWaitCycles", plain.QueuedWaitCycles.Value(), traced.QueuedWaitCycles.Value()},
	} {
		if cmp.a != cmp.b {
			t.Errorf("%s changed under telemetry: %d vs %d", cmp.name, cmp.a, cmp.b)
		}
	}
}

// TestNoSinkCycleZeroAllocs guards the "compiled to no-ops" claim for
// the controller: with no sink attached, an idle scheduling cycle
// performs zero allocations.
func TestNoSinkCycleZeroAllocs(t *testing.T) {
	c, _ := newCtrl(t, core.AllModes(), 1)
	now := sim.Tick(0)
	if allocs := testing.AllocsPerRun(200, func() {
		now++
		c.Cycle(now)
	}); allocs != 0 {
		t.Errorf("idle Cycle with nil sink: %.1f allocs/op, want 0", allocs)
	}
}

// TestAttributionOnlyBusyCycleZeroAllocs guards the bulk credit path:
// with the built-in Attribution as the only stall consumer, a busy
// cycle (arbitration, classification of a full queue, per-cause credit,
// completions and refills) allocates nothing once warm.
func TestAttributionOnlyBusyCycleZeroAllocs(t *testing.T) {
	att := telemetry.NewAttribution(testGeom())
	h := newStalledHarness(t, att)
	now := sim.Tick(0)
	h.fill(0)
	for ; now < 4096; now++ {
		h.step(now)
	}
	if allocs := testing.AllocsPerRun(2000, func() {
		now++
		h.step(now)
	}); allocs != 0 {
		t.Errorf("busy Cycle with Attribution only: %.2f allocs/op, want 0", allocs)
	}
	var sum uint64
	for c, v := range att.Causes() {
		if telemetry.StallCause(c) != telemetry.StallQueueFull {
			sum += v
		}
	}
	if want := h.c.Stats().QueuedWaitCycles.Value(); sum != want || sum == 0 {
		t.Errorf("attributed %d queued-wait cycles, the controller counted %d", sum, want)
	}
}

// TestEventSinkClassifiesNoStalls checks that a run whose only consumer
// reads events, not stalls (Occupancy, a trace or a user Sink),
// classifies no stall: over bursty traffic that keeps the queues busy,
// the stall memo never exists.
func TestEventSinkClassifiesNoStalls(t *testing.T) {
	sink := &recordingSink{}
	g := testGeom()
	eng := sim.NewEngine()
	c, err := New(Config{
		Geom: g, Tim: timing.Paper(), Modes: core.AllModes(),
		IssueLanes: 1, Interleave: addr.RowBankRankChanCol, Telemetry: sink,
	}, eng)
	if err != nil {
		t.Fatal(err)
	}
	m := addr.MustNewMapper(g, addr.RowBankRankChanCol)
	rng := rand.New(rand.NewSource(1))
	s := &c.shards[0]
	for now := sim.Tick(0); now < 20_000; now++ {
		eng.RunUntil(now)
		writeHeavy := now/2000%2 == 1
		for rng.Intn(3) == 0 {
			op := mem.Read
			if writeHeavy == (rng.Intn(4) != 0) {
				op = mem.Write
			}
			loc := addr.Location{Bank: rng.Intn(g.Banks), Row: rng.Intn(g.Rows), Col: rng.Intn(g.Cols)}
			c.Enqueue(&mem.Request{ID: uint64(now), Op: op, Addr: m.Encode(loc)}, now)
		}
		c.Cycle(now)
		if s.stalls != nil {
			t.Fatalf("tick %d: the stall memo was allocated (histogram %v, valid until %d)",
				now, s.stalls.count, s.stalls.until)
		}
	}
	if c.Stats().QueuedWaitCycles.Value() == 0 || len(sink.commands) == 0 {
		t.Error("the traffic never queued a request or issued a command")
	}
}

// BenchmarkCycleNoSink tracks the cost of an idle scheduling cycle with
// telemetry detached — the hot path every simulated cycle pays. The CI
// bench-smoke step runs this once to keep it compiling.
func BenchmarkCycleNoSink(b *testing.B) {
	eng := sim.NewEngine()
	c, err := New(Config{
		Geom: testGeom(), Tim: timing.Paper(), Modes: core.AllModes(),
		IssueLanes: 1, Interleave: addr.RowBankRankChanCol,
	}, eng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	now := sim.Tick(0)
	for i := 0; i < b.N; i++ {
		now++
		c.Cycle(now)
	}
}

// TestNoSinkBankOpsZeroAllocs guards the same claim for the bank model:
// the full activate → read → write command sequence allocates nothing
// when no sink is attached.
func TestNoSinkBankOpsZeroAllocs(t *testing.T) {
	b, err := core.NewBank(core.Config{
		Geom: testGeom(), Tim: timing.Paper(), Modes: core.AllModes(),
		WriteDrivers: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Tick(0)
	if allocs := testing.AllocsPerRun(200, func() {
		ready := b.Activate(0, 0, now)
		done := b.Read(0, 0, ready)
		if !b.CanWrite(1, 1, done) {
			t.Fatal("bank not writable after read")
		}
		end := b.Write(1, 1, done)
		now = end + 1000 // past recovery: next iteration starts idle
	}); allocs != 0 {
		t.Errorf("bank ops with nil sink: %.1f allocs/op, want 0", allocs)
	}
}

// TestStallMemoMatchesScan checks the per-bank stall memo, resolved at
// now, against a fresh classification of every queued request after
// every cycle that credits one, under bursty mixed traffic whose write
// bursts cross the drain watermarks. A missing invalidation (a command's
// stale mark, a push's classification) or a channel-dependent class
// resolved when classified rather than at each account leaves a stale
// histogram that this comparison sees.
func TestStallMemoMatchesScan(t *testing.T) {
	salp := core.AccessModes{MultiActivation: true, BackgroundedWrites: true, LocalSenseAmps: true}
	noBG := core.AccessModes{PartialActivation: true, MultiActivation: true}
	cases := []struct {
		name      string
		sags, cds int
		modes     core.AccessModes
		lanes     int
		sched     SchedulerKind
		wm        int // both drain watermarks when non-zero
	}{
		{"baseline 1x1", 1, 1, core.AccessModes{}, 1, FRFCFS, 0},
		{"fgnvm 8x2", 8, 2, core.AllModes(), 1, FRFCFS, 0},
		{"salp 8", 8, 1, salp, 1, FRFCFS, 0},
		{"fgnvm multi-issue 8x2", 8, 2, core.AllModes(), 4, FRFCFS, 0},
		// FCFS looks at the oldest request only, so a drain-mode
		// change often issues nothing in its cycle: only the drain
		// invalidation can refresh the memo there.
		{"fgnvm 8x2 fcfs", 8, 2, core.AllModes(), 1, FCFS, 0},
		// Equal watermarks toggle drain on and off in consecutive
		// cycles, the one way drain starts without a push since the
		// last classification.
		{"no-bg 8x2 fcfs equal watermarks", 8, 2, noBG, 1, FCFS, 8},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := addr.Geometry{Channels: 1, Ranks: 1, Banks: 2, Rows: 64, Cols: 16, LineBytes: 64,
				SAGs: tc.sags, CDs: tc.cds}
			eng := sim.NewEngine()
			c, err := New(Config{
				Geom: g, Tim: timing.Paper(), Modes: tc.modes, IssueLanes: tc.lanes, Scheduler: tc.sched,
				WriteLowWM: tc.wm, WriteHighWM: tc.wm,
				Interleave: addr.RowBankRankChanCol, Telemetry: &recordingSink{},
				Attribution: telemetry.NewAttribution(g),
			}, eng)
			if err != nil {
				t.Fatal(err)
			}
			m := addr.MustNewMapper(g, addr.RowBankRankChanCol)
			rng := rand.New(rand.NewSource(int64(ci + 1)))
			s := &c.shards[0]
			reused := 0
			for now := sim.Tick(0); now < 20_000; now++ {
				eng.RunUntil(now)
				// Phases of 2,000 cycles alternate read-heavy and
				// write-heavy bursts.
				writeHeavy := now/2000%2 == 1
				for rng.Intn(5) == 0 {
					op := mem.Read
					if writeHeavy == (rng.Intn(4) != 0) {
						op = mem.Write
					}
					loc := addr.Location{Bank: rng.Intn(g.Banks), Row: rng.Intn(g.Rows), Col: rng.Intn(g.Cols)}
					c.Enqueue(&mem.Request{ID: uint64(now), Op: op, Addr: m.Encode(loc)}, now)
				}
				c.Cycle(now)
				// An empty queue credits nothing, so the memo may
				// keep stale banks until the next push.
				if s.readQ.Len()+s.writeQ.Len() > 0 {
					if memo, fresh := s.resolveStalls(&s.stalls.count, now), s.stallHistogram(now); memo != fresh {
						t.Fatalf("tick %d: memo resolves to histogram %v, a fresh classification gives %v",
							now, memo, fresh)
					}
				}
				if s.stalls.until > now+1 {
					reused++
				}
			}
			if c.Stats().WriteDrainEvents.Value() == 0 {
				t.Error("traffic never crossed the drain watermark")
			}
			if reused == 0 {
				t.Error("the memo never outlived a cycle")
			}
		})
	}
}
