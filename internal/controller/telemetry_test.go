package controller

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/timing"
)

// recordingSink counts every event it receives.
type recordingSink struct {
	commands  []telemetry.Command
	requests  []telemetry.RequestEvent
	stalls    int // non-QueueFull Stall calls
	queueFull int
}

func (r *recordingSink) Command(ev telemetry.Command) { r.commands = append(r.commands, ev) }
func (r *recordingSink) Request(ev telemetry.RequestEvent) {
	r.requests = append(r.requests, ev)
}
func (r *recordingSink) Stall(cause telemetry.StallCause, _ uint64) {
	if cause == telemetry.StallQueueFull {
		r.queueFull++
		return
	}
	r.stalls++
}

func newCtrlSink(t *testing.T, sink telemetry.Sink) (*Controller, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := New(Config{
		Geom: testGeom(), Tim: timing.Paper(), Modes: core.AllModes(),
		IssueLanes: 1, Interleave: addr.RowBankRankChanCol,
		Telemetry: sink,
	}, eng)
	if err != nil {
		t.Fatal(err)
	}
	return c, eng
}

// TestTelemetryConservation drives a bursty workload and checks, at the
// controller level, the attribution invariant: one non-QueueFull stall
// event per queued request per cycle, so the event count equals the
// QueuedWaitCycles counter exactly.
func TestTelemetryConservation(t *testing.T) {
	sink := &recordingSink{}
	c, eng := newCtrlSink(t, sink)

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

	if got, want := uint64(sink.stalls), c.Stats().QueuedWaitCycles.Value(); got != want {
		t.Errorf("stall events %d != queued-wait cycles %d", got, want)
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
	drive := func(sink telemetry.Sink) (Stats, sim.Tick) {
		c, eng := newCtrlSink(t, sink)
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
	plain, endPlain := drive(nil)
	traced, endTraced := drive(&recordingSink{})
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
