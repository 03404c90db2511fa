// Package telemetry is the observability subsystem of the simulator:
// a low-overhead event hook interface (Sink) that the kernel, the bank
// models and the memory controller call at command issue, block and
// completion points, plus the standard consumers built on it —
//
//   - Attribution: a stall-attribution engine that classifies every
//     cycle a queued request waits into a fixed taxonomy (SAG conflict,
//     CD conflict, bus conflict, write-drain block, queue full,
//     controller idle) and aggregates per request, per tile and per
//     run;
//   - Occupancy: a per-tile (SAG × CD) busy-cycle matrix;
//   - Trace: a Chrome trace-event / Perfetto JSON exporter with one
//     track per (bank, SAG, CD) resource and request-lifetime flow
//     events.
//
// Components hold a Sink that is nil when telemetry is off; every hook
// call is guarded by a nil check, so the disabled path costs one
// branch and zero allocations (asserted by tests). All consumers are
// single-goroutine, matching the simulator's execution model.
package telemetry

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/sim"
)

// StallCause classifies one cycle of a queued request's waiting time by
// the resource that blocked it. The taxonomy follows the paper's
// Section 4 serialization story: wordline conflicts (SAG), sense-amp
// conflicts (CD), shared-I/O "column conflicts" (bus), write-blocked
// tiles, controller admission (queue full), and the remainder where no
// memory resource was the blocker (controller idle: own sense in
// flight, tCCD pacing, arbitration or scheduling policy).
type StallCause uint8

const (
	// StallSAGConflict: the request needs a wordline in a subarray
	// group that is busy sensing another row.
	StallSAGConflict StallCause = iota
	// StallCDConflict: the request needs a column division whose
	// bank-edge sense path is busy with another sense.
	StallCDConflict
	// StallBusConflict: the request's tile is ready but the shared
	// data-bus lanes are occupied (the paper's "column conflicts").
	StallBusConflict
	// StallWriteDrain: the request is blocked by an in-flight or
	// draining write (tile write-occupancy, or activations suppressed
	// while a write batch drains).
	StallWriteDrain
	// StallQueueFull: the request could not even be admitted — the
	// transaction queue was full (counted per rejected enqueue attempt;
	// the request is not in a queue, so these cycles are reported
	// separately from queued waiting).
	StallQueueFull
	// StallControllerIdle: the request waited without any memory
	// resource blocking it — its own activation still sensing, column
	// command pacing (tCCD), or the scheduler preferring another
	// request with resources to spare.
	StallControllerIdle

	// NumStallCauses is the number of causes (for array sizing).
	NumStallCauses = int(StallControllerIdle) + 1
)

var stallCauseNames = [NumStallCauses]string{
	"sag-conflict", "cd-conflict", "bus-conflict",
	"write-drain", "queue-full", "controller-idle",
}

func (c StallCause) String() string {
	if int(c) < len(stallCauseNames) {
		return stallCauseNames[c]
	}
	return fmt.Sprintf("StallCause(%d)", int(c))
}

// CommandKind identifies a device command span.
type CommandKind uint8

const (
	// CmdActivate is a (partial) row activation: the sense window.
	CmdActivate CommandKind = iota
	// CmdRead is a column read: CAS through end of data burst.
	CmdRead
	// CmdWrite is a line write: write data through end of recovery.
	CmdWrite
	// CmdBus is a shared data-bus burst on one lane (CD carries the
	// lane index; SAG is unused).
	CmdBus
)

func (k CommandKind) String() string {
	switch k {
	case CmdActivate:
		return "ACT"
	case CmdRead:
		return "RD"
	case CmdWrite:
		return "WR"
	case CmdBus:
		return "BUS"
	default:
		return fmt.Sprintf("CommandKind(%d)", int(k))
	}
}

// BankID names one bank in the memory system.
type BankID struct {
	Channel, Rank, Bank int
}

// Command is one device command span on a tile (or bus lane).
type Command struct {
	Kind     CommandKind
	Bank     BankID
	SAG, CD  int // tile coordinates; for CmdBus, CD is the lane index
	Row, Col int
	Start    sim.Tick
	End      sim.Tick // exclusive: resource free again at End
	ReqID    uint64   // originating request, 0 if not applicable
}

// RequestPhase is a lifecycle point of a memory request.
type RequestPhase uint8

const (
	// ReqEnqueued: the request entered the controller (accepted).
	ReqEnqueued RequestPhase = iota
	// ReqIssued: the first command was issued on its behalf.
	ReqIssued
	// ReqCompleted: data returned (read) or write retired.
	ReqCompleted
)

// RequestEvent is one request lifecycle transition.
type RequestEvent struct {
	Phase  RequestPhase
	ID     uint64
	Write  bool
	Loc    addr.Location
	Now    sim.Tick
	Arrive sim.Tick // set on ReqCompleted (for latency accounting)
}

// StallEvent attributes waiting cycles of one queued request to a
// cause. One StallEvent is emitted per queued request per cycle it
// remains queued after scheduling, plus one per rejected enqueue
// attempt (StallQueueFull) — except across a fast-forwarded idle
// window, where the controller proves the classification constant and
// emits a single event with N carrying the cycle count. Consumers that
// count cycles must weight by N (treating 0 as 1); the aggregate
// totals are identical either way.
type StallEvent struct {
	ReqID   uint64
	Write   bool
	Loc     addr.Location
	SAG, CD int
	Cause   StallCause
	Now     sim.Tick
	// N is the number of cycles this event stands for. Zero means 1
	// (the common cycle-by-cycle case leaves it unset).
	N uint64
}

// Sink receives simulation events. Implementations must be cheap: the
// controller calls Stall once per queued request per cycle when a sink
// is attached. A nil Sink means telemetry is off.
type Sink interface {
	Command(ev Command)
	Request(ev RequestEvent)
	Stall(ev StallEvent)
}

// Fanout broadcasts events to several sinks in order.
type Fanout []Sink

// Command implements Sink.
func (f Fanout) Command(ev Command) {
	for _, s := range f {
		s.Command(ev)
	}
}

// Request implements Sink.
func (f Fanout) Request(ev RequestEvent) {
	for _, s := range f {
		s.Request(ev)
	}
}

// Stall implements Sink.
func (f Fanout) Stall(ev StallEvent) {
	for _, s := range f {
		s.Stall(ev)
	}
}

// Compact reduces a Fanout to the cheapest equivalent Sink: nil when
// empty (telemetry off, nil-check fast path), the sole element when
// singular, itself otherwise.
func (f Fanout) Compact() Sink {
	switch len(f) {
	case 0:
		return nil
	case 1:
		return f[0]
	default:
		return f
	}
}
