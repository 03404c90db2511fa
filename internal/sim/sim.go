// Package sim provides the discrete-event simulation kernel used by the
// FgNVM memory-system simulator.
//
// The kernel is deliberately small: a Tick clock, a priority queue of
// pending events, and an Engine that dispatches them. The run loop steps
// the cycle-driven components (the memory controller, the CPU cores)
// itself, one cycle at a time, and drains the engine up to each cycle;
// the engine carries only latency-based one-shot completions (bank
// sensing, write pulses, data bursts) that components schedule with
// ScheduleArg.
//
// The queue is one hand-rolled binary min-heap ordered by (when, seq),
// where seq is a global schedule counter. Two events scheduled for the
// same Tick therefore fire in the order they were scheduled (FIFO within
// a tick), which makes simulation results reproducible across runs and
// platforms.
package sim

import (
	"fmt"

	"repro/internal/invariant"
)

// Tick is a point in simulated time, measured in memory-controller clock
// cycles since the start of simulation.
type Tick uint64

// MaxTick is the largest representable simulation time. It is used as an
// "idle forever" sentinel by components that have no pending work.
const MaxTick = Tick(^uint64(0))

// ArgEvent is a callback scheduled with an explicit argument. A
// component caches one ArgEvent method value at construction time and
// schedules it with per-request arguments, so the completion path never
// allocates a closure per request.
type ArgEvent func(now Tick, arg any)

// item is a scheduled event inside the queue.
type item struct {
	when Tick
	seq  uint64 // tie-breaker: schedule order within the same tick
	fn   ArgEvent
	arg  any
}

// eventHeap is a binary min-heap ordered by (when, seq). It hand-rolls
// push/pop instead of using container/heap: the interface-based API
// boxes every item into an `any`, which costs two heap allocations per
// event and would defeat the zero-alloc steady state.
type eventHeap []item

func (h eventHeap) less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(it item) {
	*h = append(*h, it)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() item {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = item{} // release the arg for GC
	*h = q[:n]
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return top
}

// Hook observes kernel activity: it is called immediately before each
// event dispatches, with the dispatch time and the number of events
// still pending (excluding the one dispatching). Hooks must not
// schedule or otherwise mutate the engine; they exist for telemetry
// (event-queue depth tracking, trace counter tracks).
type Hook func(now Tick, pending int)

// Engine owns the simulated clock and the event queue.
//
// The zero value is a ready-to-use engine at time 0.
type Engine struct {
	now    Tick
	seq    uint64
	events eventHeap
	hook   Hook
}

// initialHeapCap pre-sizes the heap so that the in-flight completions
// of a typical run fit without regrowing the backing array.
const initialHeapCap = 64

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine {
	return &Engine{events: make(eventHeap, 0, initialHeapCap)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Tick { return e.now }

// Pending returns the number of events that have been scheduled but not
// yet dispatched.
func (e *Engine) Pending() int { return len(e.events) }

// SetHook attaches (or, with nil, detaches) a telemetry hook. The
// disabled path costs one nil check per dispatch.
func (e *Engine) SetHook(h Hook) { e.hook = h }

// ScheduleArg arranges for fn(when, arg) to run at the absolute time
// when: fn is typically a method value cached once at construction, and
// arg the request being completed. Scheduling in the past (when < Now)
// panics: it always indicates a modelling bug, and silently reordering
// time would corrupt results. A nil fn panics too.
func (e *Engine) ScheduleArg(when Tick, fn ArgEvent, arg any) {
	if when < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", when, e.now))
	}
	if fn == nil {
		panic("sim: schedule nil event")
	}
	e.seq++
	e.events.push(item{when: when, seq: e.seq, fn: fn, arg: arg})
}

// NextEventTick returns the time of the earliest pending event, or
// MaxTick when the queue is empty. It lets the run loop compute how far
// simulated time can jump while every component is provably idle.
func (e *Engine) NextEventTick() Tick {
	if len(e.events) == 0 {
		return MaxTick
	}
	return e.events[0].when
}

// Step dispatches the single earliest pending event, advancing the clock
// to its timestamp. It reports false if the queue was empty.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	it := e.events.pop()
	if invariant.Enabled && it.when < e.now {
		invariant.Assertf(false,
			"event queue time ran backwards: dispatching tick %d with clock at %d", it.when, e.now)
	}
	e.now = it.when
	if e.hook != nil {
		e.hook(it.when, len(e.events))
	}
	it.fn(it.when, it.arg)
	return true
}

// RunUntil dispatches events until the queue is empty or the next event
// is strictly after limit. The clock never advances past limit.
// It returns the number of events dispatched.
func (e *Engine) RunUntil(limit Tick) int {
	n := 0
	for {
		next := e.NextEventTick()
		if next == MaxTick || next > limit {
			break
		}
		e.Step()
		n++
	}
	if e.now < limit {
		e.now = limit
	}
	return n
}

// Run dispatches all pending events (including events scheduled by the
// events being dispatched) and returns the number dispatched. Use with
// care: a self-rescheduling event makes this loop forever, so components
// that tick every cycle should be driven with RunUntil.
func (e *Engine) Run() int {
	n := 0
	for e.Step() {
		n++
	}
	return n
}

// Advance moves the clock forward to when without dispatching anything.
// It panics if events earlier than when are still pending, or if when is
// in the past: skipping over scheduled work is always a bug.
func (e *Engine) Advance(when Tick) {
	if when < e.now {
		panic(fmt.Sprintf("sim: advance backwards from %d to %d", e.now, when))
	}
	if next := e.NextEventTick(); next < when {
		panic(fmt.Sprintf("sim: advance to %d would skip event at %d", when, next))
	}
	e.now = when
}
