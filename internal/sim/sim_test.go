package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// at schedules fn at when through ScheduleArg. The closure adapter
// allocates, so zero-alloc tests and benchmarks schedule nop directly.
func at(e *Engine, when Tick, fn func(now Tick)) {
	e.ScheduleArg(when, func(now Tick, _ any) { fn(now) }, nil)
}

// nop is a cached ArgEvent: scheduling it never allocates.
var nop ArgEvent = func(Tick, any) {}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

func TestEngineZeroValue(t *testing.T) {
	var e Engine
	if e.Now() != 0 || e.Pending() != 0 || e.Step() {
		t.Fatalf("zero engine: Now=%d Pending=%d, Step reported an event", e.Now(), e.Pending())
	}
}

// TestScheduleAndStep: events dispatch in time order, each with the
// argument it was scheduled with, and the clock ends on the last one.
func TestScheduleAndStep(t *testing.T) {
	e := NewEngine()
	var fired []Tick
	rec := func(now Tick, arg any) {
		if arg.(Tick) != now {
			t.Errorf("event at %d got arg %v", now, arg)
		}
		fired = append(fired, now)
	}
	for _, w := range []Tick{10, 5, 7} {
		e.ScheduleArg(w, rec, w)
	}
	for e.Step() {
	}
	if want := []Tick{5, 7, 10}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
}

func TestFIFOWithinTick(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		at(e, 42, func(Tick) { order = append(order, i) })
	}
	e.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("order[%d] = %d, want %d (same-tick events must be FIFO)", i, got, i)
		}
	}
}

// TestSameTickFIFOAcrossHorizons: an event scheduled far ahead fires
// before events scheduled later, from close by, for the same tick.
func TestSameTickFIFOAcrossHorizons(t *testing.T) {
	e := NewEngine()
	var order []int
	const target = 300
	at(e, target, func(Tick) { order = append(order, 0) })
	at(e, target-10, func(Tick) {
		at(e, target, func(Tick) { order = append(order, 1) })
		at(e, target, func(Tick) { order = append(order, 2) })
	})
	e.Run()
	if !slices.Equal(order, []int{0, 1, 2}) {
		t.Fatalf("same-tick dispatch order = %v, want [0 1 2]", order)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleArg(5, nop, nil)
	e.Step()
	mustPanic(t, "scheduling in the past", func() { e.ScheduleArg(1, nop, nil) })
}

func TestScheduleNilPanics(t *testing.T) {
	mustPanic(t, "scheduling a nil event", func() { NewEngine().ScheduleArg(1, nil, nil) })
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	for _, w := range []Tick{1, 5, 10, 15} {
		e.ScheduleArg(w, nop, nil)
	}
	if n := e.RunUntil(10); n != 3 || e.Now() != 10 || e.Pending() != 1 {
		t.Fatalf("RunUntil(10): n=%d Now=%d Pending=%d, want 3, 10 (clock advances to limit), 1",
			n, e.Now(), e.Pending())
	}
	if n := e.RunUntil(20); n != 1 || e.Now() != 20 {
		t.Fatalf("second RunUntil: n=%d Now=%d, want 1, 20", n, e.Now())
	}
}

func TestRunUntilIdleAdvancesClock(t *testing.T) {
	e := NewEngine()
	if n := e.RunUntil(1000); n != 0 || e.Now() != 1000 {
		t.Fatalf("RunUntil on an idle engine: n=%d Now=%d, want 0, 1000", n, e.Now())
	}
}

func TestAdvance(t *testing.T) {
	e := NewEngine()
	e.Advance(50)
	if e.Now() != 50 {
		t.Fatalf("Now = %d, want 50", e.Now())
	}
}

func TestAdvanceSkippingEventPanics(t *testing.T) {
	e := NewEngine()
	e.ScheduleArg(10, nop, nil)
	mustPanic(t, "Advance past a pending event", func() { e.Advance(20) })
}

// TestAdvanceUpToPendingEvent: Advance may land exactly on the earliest
// pending event's tick, as the run loop's fast-forward does, and the
// event still dispatches there.
func TestAdvanceUpToPendingEvent(t *testing.T) {
	e := NewEngine()
	var fired []Tick
	at(e, 10, func(now Tick) { fired = append(fired, now) })
	e.Advance(10)
	e.Run()
	if !slices.Equal(fired, []Tick{10}) || e.Now() != 10 {
		t.Fatalf("fired %v, Now=%d; want [10], 10", fired, e.Now())
	}
}

func TestAdvanceBackwardsPanics(t *testing.T) {
	e := NewEngine()
	e.Advance(20)
	mustPanic(t, "Advance backwards", func() { e.Advance(10) })
}

// TestSelfReschedulingTicker: an event may schedule itself again from
// inside its own dispatch; RunUntil bounds the otherwise endless chain.
func TestSelfReschedulingTicker(t *testing.T) {
	e := NewEngine()
	count := 0
	var tickFn ArgEvent
	tickFn = func(now Tick, _ any) {
		count++
		e.ScheduleArg(now+1, tickFn, nil)
	}
	e.ScheduleArg(0, tickFn, nil)
	e.RunUntil(99)
	if count != 100 {
		t.Fatalf("ticker fired %d times over [0,99], want 100", count)
	}
}

// TestLongRunClock drives a one-tick ticker to completion over a long
// stretch of simulated time; the clock stops on the last dispatch.
func TestLongRunClock(t *testing.T) {
	const ticks = 1280
	e := NewEngine()
	count := 0
	var tickFn ArgEvent
	tickFn = func(now Tick, _ any) {
		if count++; count < ticks {
			e.ScheduleArg(now+1, tickFn, nil)
		}
	}
	e.ScheduleArg(0, tickFn, nil)
	e.Run()
	if count != ticks || e.Now() != ticks-1 {
		t.Fatalf("ticker fired %d times, Now=%d; want %d, %d", count, e.Now(), ticks, ticks-1)
	}
}

// TestSteadyStateZeroAlloc: once the heap's backing array is warm, the
// schedule→dispatch loop must not allocate.
func TestSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	e.ScheduleArg(1, nop, nil)
	e.ScheduleArg(512, nop, nil)
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleArg(e.Now()+7, nop, nil)
		e.ScheduleArg(e.Now()+63, nop, nil)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/dispatch allocates %.1f per iteration, want 0", allocs)
	}
}

// TestEventOrderProperty: regardless of insertion order, events fire in
// nondecreasing time order, and same-time events fire in insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		type rec struct {
			when Tick
			seq  int
		}
		var fired []rec
		for i, tm := range times {
			at(e, Tick(tm), func(now Tick) { fired = append(fired, rec{now, i}) })
		}
		e.Run()
		if len(fired) != len(times) {
			return false
		}
		// Nondecreasing time; FIFO within equal times.
		for i := 1; i < len(fired); i++ {
			if fired[i].when < fired[i-1].when {
				return false
			}
			if fired[i].when == fired[i-1].when && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		// The multiset of fire times equals the multiset scheduled.
		want := make([]int, len(times))
		for i, tm := range times {
			want[i] = int(tm)
		}
		got := make([]int, len(fired))
		for i, r := range fired {
			got[i] = int(r.when)
		}
		sort.Ints(want)
		sort.Ints(got)
		return slices.Equal(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapStress exercises the queue with interleaved schedule/step
// operations and verifies the clock never goes backwards.
func TestHeapStress(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := NewEngine()
	last := Tick(0)
	dispatched := 0
	for i := 0; i < 5000; i++ {
		if rng.Intn(3) != 0 || e.Pending() == 0 {
			at(e, e.Now()+Tick(rng.Intn(100)), func(now Tick) {
				if now < last {
					t.Errorf("clock went backwards: %d after %d", now, last)
				}
				last = now
				dispatched++
			})
		} else {
			e.Step()
		}
	}
	e.Run()
	if e.Pending() != 0 || dispatched == 0 {
		t.Fatalf("stress run: %d events left over, %d dispatched", e.Pending(), dispatched)
	}
}

// BenchmarkDispatchNear measures short-horizon completions like bank
// timing delays, one in flight at a time.
func BenchmarkDispatchNear(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleArg(e.Now()+Tick(1+i%100), nop, nil)
		e.Step()
	}
}

// BenchmarkDispatchFar measures far-horizon events like refresh timers.
func BenchmarkDispatchFar(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ScheduleArg(e.Now()+Tick(256+i%1000), nop, nil)
		e.Step()
	}
}

// BenchmarkDispatchMixed approximates a busy controller: several
// in-flight near completions plus an occasional far event.
func BenchmarkDispatchMixed(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.ScheduleArg(Tick(10+i*7), nop, nil)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			e.ScheduleArg(e.Now()+356, nop, nil)
		} else {
			e.ScheduleArg(e.Now()+Tick(1+i%90), nop, nil)
		}
		e.Step()
	}
	for e.Step() {
	}
}
