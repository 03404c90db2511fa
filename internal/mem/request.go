// Package mem defines the memory request model shared by the CPU, the
// memory controller and the bank models: request kinds, lifecycle
// timestamps, and the bounded transaction queues of Table 2.
package mem

import (
	"fmt"
	"slices"

	"repro/internal/addr"
	"repro/internal/sim"
)

// Op is the kind of a memory request.
type Op int

const (
	// Read is a demand load miss arriving from the LLC.
	Read Op = iota
	// Write is a dirty-line writeback (or store miss) to memory.
	Write
)

func (o Op) String() string {
	switch o {
	case Read:
		return "READ"
	case Write:
		return "WRITE"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Request is one cache-line memory transaction as it flows through the
// system. The controller fills in the Loc and timestamp fields.
type Request struct {
	ID   uint64 // unique, assigned by the issuer
	Op   Op
	Addr uint64        // physical byte address
	Loc  addr.Location // decoded by the controller on enqueue

	// Lifecycle timestamps, in controller cycles.
	Arrive   sim.Tick // entered the controller queue
	Issue    sim.Tick // first command issued on its behalf
	Complete sim.Tick // data returned (read) or write retired

	// OnComplete, if non-nil, runs when the request completes. The CPU
	// model uses it to wake ROB entries.
	OnComplete func(r *Request, now sim.Tick)

	// Entry is an opaque slot for the issuer to associate its own
	// bookkeeping with the request (the CPU model stores its ROB
	// load-entry pointer here so OnComplete can be a shared method
	// value instead of a per-request closure). The memory system never
	// reads or writes it.
	Entry any

	// Opened records that the memory system issued an activation (or,
	// on DRAM, a precharge) on the request's behalf: a read served
	// without one is a row-buffer hit.
	Opened bool

	issued bool
	done   bool
}

// Reset returns the request to its zero state so a pool can reuse it.
// Resetting a request that is still in flight (enqueued but not
// finished) panics: recycling it would let two logical requests alias
// one object.
func (r *Request) Reset() {
	if r.issued && !r.done {
		panic(fmt.Sprintf("mem: reset of in-flight request %d", r.ID))
	}
	*r = Request{}
}

// Issued reports whether the controller has started servicing r.
func (r *Request) Issued() bool { return r.issued }

// MarkIssued records the first service time. Repeat calls keep the first.
func (r *Request) MarkIssued(now sim.Tick) {
	if !r.issued {
		r.issued = true
		r.Issue = now
	}
}

// Done reports whether the request has completed.
func (r *Request) Done() bool { return r.done }

// Finish marks completion at time now and fires OnComplete. Finishing a
// request twice panics: it means the controller double-serviced it.
func (r *Request) Finish(now sim.Tick) {
	if r.done {
		panic(fmt.Sprintf("mem: request %d finished twice", r.ID))
	}
	r.done = true
	r.Complete = now
	if r.OnComplete != nil {
		r.OnComplete(r, now)
	}
}

// Latency returns the queueing+service latency in cycles. It panics if
// the request has not completed.
func (r *Request) Latency() sim.Tick {
	if !r.done {
		panic(fmt.Sprintf("mem: latency of unfinished request %d", r.ID))
	}
	return r.Complete - r.Arrive
}

func (r *Request) String() string {
	return fmt.Sprintf("%s #%d pa=%#x ch%d/rk%d/bk%d row=%d col=%d",
		r.Op, r.ID, r.Addr, r.Loc.Channel, r.Loc.Rank, r.Loc.Bank, r.Loc.Row, r.Loc.Col)
}

// Queue is a bounded FIFO of in-flight requests preserving arrival order.
// Age order is the iteration order, which is what FR-FCFS needs: the
// scheduler breaks ties by position, so removal MUST NOT reorder the
// survivors (a swap-with-last trick would change arbitration and thus
// simulation results). Removal therefore shifts the younger entries
// down by one slot; queues are small (Table 2 uses 32 entries).
type Queue struct {
	entries []*Request // oldest first; cap(entries) is the queue capacity
}

// NewQueue returns a queue with the given capacity. Capacity must be
// positive.
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		panic(fmt.Sprintf("mem: queue capacity %d", capacity))
	}
	// Entries are pre-sized to capacity, and neither Push nor Remove
	// ever grows the backing array, so the queue stays off the
	// allocator for the rest of the run.
	return &Queue{entries: make([]*Request, 0, capacity)}
}

// Cap returns the queue capacity.
func (q *Queue) Cap() int { return cap(q.entries) }

// Len returns the number of queued requests.
func (q *Queue) Len() int { return len(q.entries) }

// Full reports whether the queue is at capacity.
func (q *Queue) Full() bool { return len(q.entries) == cap(q.entries) }

// Empty reports whether the queue has no requests.
func (q *Queue) Empty() bool { return len(q.entries) == 0 }

// Push appends r in arrival order. It reports false (and does not
// enqueue) if the queue is full — the caller models backpressure.
func (q *Queue) Push(r *Request) bool {
	if q.Full() {
		return false
	}
	q.entries = append(q.entries, r)
	return true
}

// At returns the i-th oldest request.
func (q *Queue) At(i int) *Request { return q.entries[i] }

// Remove deletes the i-th oldest request, preserving the order of the
// rest. The vacated tail slot is cleared, so the queue holds no
// reference to a request it no longer owns.
func (q *Queue) Remove(i int) *Request {
	r := q.entries[i]
	q.entries = slices.Delete(q.entries, i, i+1)
	return r
}

// Scan calls fn on each request in age order (oldest first) until fn
// returns false.
func (q *Queue) Scan(fn func(i int, r *Request) bool) {
	for i, r := range q.entries {
		if !fn(i, r) {
			return
		}
	}
}
