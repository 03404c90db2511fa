// Package sim provides the discrete-event simulation kernel used by the
// FgNVM memory-system simulator.
//
// The kernel is deliberately small: a Tick clock, a deterministic
// priority queue of events, and an Engine that dispatches them. Components
// that are naturally cycle-stepped (the memory controller, the CPU core)
// run as repeating events; components that are naturally latency-based
// (bank sensing, write pulses, data bursts) schedule one-shot completions.
//
// Determinism: two events scheduled for the same Tick fire in the order
// they were scheduled (FIFO within a tick), which makes simulation results
// reproducible across runs and platforms.
//
// Internally the queue is a calendar/timing wheel backed by a binary-heap
// overflow. Nearly every event a memory-system model schedules is a
// short-horizon timing delay (Table 2 latencies: tens of cycles), so an
// event landing within wheelSlots ticks of now goes into a direct-mapped
// slot at O(1); rare far-future events (e.g. DRAM refresh at tREFI) fall
// back to the heap. Dispatch merges the two structures by (when, seq), so
// the externally observable order is identical to a single heap.
package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/invariant"
)

// Tick is a point in simulated time, measured in memory-controller clock
// cycles since the start of simulation.
type Tick uint64

// MaxTick is the largest representable simulation time. It is used as an
// "idle forever" sentinel by components that have no pending work.
const MaxTick = Tick(^uint64(0))

// Event is a callback scheduled to run at a specific Tick.
type Event func(now Tick)

// ArgEvent is a callback scheduled with an explicit argument. It exists
// for the hot completion path: a component can cache one ArgEvent
// method value at construction time and schedule it with per-request
// arguments, where an equivalent Event would capture the request in a
// fresh closure allocation on every call.
type ArgEvent func(now Tick, arg any)

// item is a scheduled event inside the queue. Exactly one of fn and
// argFn is set.
type item struct {
	when  Tick
	seq   uint64 // tie-breaker: schedule order within the same tick
	fn    Event
	argFn ArgEvent
	arg   any
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
	q[n] = item{} // release the arg/closure for GC
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

// Wheel geometry. wheelSlots must be a power of two. 256 slots cover
// every timing delay in internal/timing (the longest single-command
// occupancy is a write: tCWD + pulses*tWP + tWR ≈ 66 cycles, and burst
// transfers are shorter still), so in steady state every completion is a
// wheel insert; only far-horizon events such as DRAM refresh (tREFI ≈
// 3120 cycles) take the heap path.
const (
	wheelSlots = 256
	wheelMask  = wheelSlots - 1
	slotCap0   = 4 // initial per-slot capacity, carved from one backing array
)

// slot holds the events of exactly one tick. Because an event is only
// inserted when when-now < wheelSlots and the clock never moves past a
// pending event, two events in the same slot always share the same when:
// a second tick mapping to the slot cannot be scheduled until the first
// tick's events have all dispatched. head indexes the next event to
// dispatch; entries [head:len) are pending, in seq order (appends are
// monotone in seq).
type slot struct {
	head  int
	items []item
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
	events eventHeap // overflow: events >= wheelSlots ticks ahead at insert
	hook   Hook

	wheel      []slot                  // lazily allocated on first near insert
	occ        [wheelSlots / 64]uint64 // occupancy bitmap, one bit per slot
	wcount     int                     // events currently in the wheel
	wNext      Tick                    // earliest wheel tick; valid iff wNextKnown
	wNextKnown bool
}

// initialHeapCap pre-sizes the overflow heap; far-future events are rare
// (refresh timers), so a small backing array suffices and never grows in
// steady state.
const initialHeapCap = 64

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine {
	return &Engine{events: make(eventHeap, 0, initialHeapCap)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Tick { return e.now }

// Pending returns the number of events that have been scheduled but not
// yet dispatched.
func (e *Engine) Pending() int { return e.wcount + len(e.events) }

// SetHook attaches (or, with nil, detaches) a telemetry hook. The
// disabled path costs one nil check per dispatch.
func (e *Engine) SetHook(h Hook) { e.hook = h }

// initWheel allocates the wheel with every slot's initial capacity carved
// from a single backing array, so warming the wheel costs two allocations
// total instead of one per touched slot.
func (e *Engine) initWheel() {
	e.wheel = make([]slot, wheelSlots)
	backing := make([]item, wheelSlots*slotCap0)
	for i := range e.wheel {
		off := i * slotCap0
		e.wheel[i].items = backing[off : off : off+slotCap0]
	}
}

// insert routes a stamped item to the wheel or the overflow heap.
func (e *Engine) insert(it item) {
	if it.when-e.now < wheelSlots {
		if e.wheel == nil {
			e.initWheel()
		}
		s := int(it.when) & wheelMask
		e.wheel[s].items = append(e.wheel[s].items, it)
		e.occ[s>>6] |= 1 << (uint(s) & 63)
		if e.wcount == 0 {
			e.wNext, e.wNextKnown = it.when, true
		} else if e.wNextKnown && it.when < e.wNext {
			e.wNext = it.when
		}
		e.wcount++
		return
	}
	e.events.push(it)
}

// wheelNextTick returns the earliest tick with pending wheel events, or
// MaxTick when the wheel is empty. The value is cached; a cache miss
// scans the occupancy bitmap (at most wheelSlots/64 + 1 words).
func (e *Engine) wheelNextTick() Tick {
	if e.wcount == 0 {
		return MaxTick
	}
	if !e.wNextKnown {
		e.wNext = e.scanWheel()
		e.wNextKnown = true
	}
	return e.wNext
}

// scanWheel finds the earliest occupied slot in circular order starting
// at now's slot. Every wheel event satisfies when in [now, now+wheelSlots),
// so slot distance from now's slot maps directly to tick distance.
func (e *Engine) scanWheel() Tick {
	s0 := uint(e.now) & wheelMask
	w0 := s0 >> 6
	off := s0 & 63
	const words = wheelSlots / 64
	for k := uint(0); k <= words; k++ {
		wi := (w0 + k) & (words - 1)
		word := e.occ[wi]
		if k == 0 {
			word &= ^uint64(0) << off
		} else if k == words {
			word &= (uint64(1) << off) - 1
		}
		if word != 0 {
			s := wi<<6 | uint(bits.TrailingZeros64(word))
			return e.now + Tick((s-s0)&wheelMask)
		}
	}
	panic("sim: wheel occupancy bitmap inconsistent with wcount")
}

// Schedule arranges for fn to run at the absolute time when.
// Scheduling in the past (when < Now) panics: it always indicates a
// modelling bug, and silently reordering time would corrupt results.
func (e *Engine) Schedule(when Tick, fn Event) {
	if when < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", when, e.now))
	}
	if fn == nil {
		panic("sim: schedule nil event")
	}
	e.seq++
	e.insert(item{when: when, seq: e.seq, fn: fn})
}

// ScheduleAfter arranges for fn to run delay ticks from now.
func (e *Engine) ScheduleAfter(delay Tick, fn Event) {
	e.Schedule(e.now+delay, fn)
}

// ScheduleArg arranges for fn(when, arg) to run at the absolute time
// when. It is the allocation-free counterpart of Schedule for callers
// that can hoist the callback out of the per-request path: fn is
// typically a method value cached once at construction, and arg the
// request being completed. Same past/nil rules as Schedule.
func (e *Engine) ScheduleArg(when Tick, fn ArgEvent, arg any) {
	if when < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", when, e.now))
	}
	if fn == nil {
		panic("sim: schedule nil event")
	}
	e.seq++
	e.insert(item{when: when, seq: e.seq, argFn: fn, arg: arg})
}

// NextEventTick returns the time of the earliest pending event, or
// MaxTick when the queue is empty. It lets the run loop compute how far
// simulated time can jump while every component is provably idle.
func (e *Engine) NextEventTick() Tick {
	next := e.wheelNextTick()
	if len(e.events) > 0 && e.events[0].when < next {
		next = e.events[0].when
	}
	return next
}

// Step dispatches the single earliest pending event, advancing the clock
// to its timestamp. It reports false if the queue was empty.
//
// When the wheel and the heap both hold events at the same tick, the one
// with the smaller seq dispatches first, preserving the global
// FIFO-within-tick contract across the two structures.
func (e *Engine) Step() bool {
	wWhen := e.wheelNextTick()
	hWhen := MaxTick
	if len(e.events) > 0 {
		hWhen = e.events[0].when
	}
	if wWhen == MaxTick && hWhen == MaxTick {
		return false
	}
	var it item
	if wWhen < hWhen || (wWhen == hWhen && e.wheel[int(wWhen)&wheelMask].items[e.wheel[int(wWhen)&wheelMask].head].seq < e.events[0].seq) {
		s := &e.wheel[int(wWhen)&wheelMask]
		it = s.items[s.head]
		s.head++
		e.wcount--
		if s.head == len(s.items) {
			s.items = s.items[:0]
			s.head = 0
			si := int(wWhen) & wheelMask
			e.occ[si>>6] &^= 1 << (uint(si) & 63)
			e.wNextKnown = false
		}
	} else {
		it = e.events.pop()
	}
	if invariant.Enabled && it.when < e.now {
		invariant.Assertf(false,
			"event queue time ran backwards: dispatching tick %d with clock at %d", it.when, e.now)
	}
	e.now = it.when
	if e.hook != nil {
		e.hook(it.when, e.Pending())
	}
	if it.fn != nil {
		it.fn(it.when)
	} else {
		it.argFn(it.when, it.arg)
	}
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
