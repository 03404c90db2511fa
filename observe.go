// Observability facade: Options.Telemetry turns on the internal
// telemetry subsystem (stall attribution, per-tile occupancy, Perfetto
// trace export) for one run and surfaces its aggregates on Result.

package fgnvm

import (
	"io"

	"repro/internal/telemetry"
)

// TelemetryOptions selects which observability consumers a run attaches
// (see internal/telemetry). All fields default to off; a nil
// Options.Telemetry leaves every simulator hook on its zero-cost
// disabled path. Telemetry applies to the NVM designs only — the
// DesignDRAM reference system is not instrumented, and requesting
// telemetry for it is ignored.
type TelemetryOptions struct {
	// Attribution enables the stall-attribution engine; Result.Stalls
	// is populated.
	Attribution bool

	// Occupancy enables the per-tile busy-cycle matrix;
	// Result.TileOccupancy is populated.
	Occupancy bool

	// TraceWriter, when non-nil, receives a Chrome trace-event /
	// Perfetto JSON trace of the run (openable in ui.perfetto.dev):
	// one track per (bank, SAG, CD) tile and per bus lane, async spans
	// per request, and a kernel pending-events counter. Identical
	// Options produce byte-identical traces. As io.Writer requires, it
	// must not retain the slices it is given: later runs reuse them.
	TraceWriter io.Writer

	// Sink, when non-nil, additionally receives every raw command and
	// request event — the extension point for custom consumers. It
	// gets no stalls: those are classified only for Attribution and
	// reported in Result.Stalls. Event order is part of the
	// simulator's determinism contract: within a tick, channels emit in
	// ascending order. Sink callbacks run on the goroutine that called
	// Run.
	Sink telemetry.Sink
}

// StallBreakdown reports where queued requests spent their waiting
// cycles, by blocking cause. The first five buckets partition
// QueuedWaitCycles exactly (conservation is asserted in tests);
// QueueFull counts rejected enqueue attempts, which happen outside the
// queues and therefore sit outside that sum.
type StallBreakdown struct {
	SAGConflict    uint64 `json:"sag_conflict"`    // wordline/row-latch busy in the target SAG
	CDConflict     uint64 `json:"cd_conflict"`     // bank-edge sense path busy in the target CD
	BusConflict    uint64 `json:"bus_conflict"`    // tile ready, shared data-bus lanes occupied
	WriteDrain     uint64 `json:"write_drain"`     // blocked by an in-flight or draining write
	ControllerIdle uint64 `json:"controller_idle"` // own sense in flight, tCCD pacing, scheduling policy
	QueueFull      uint64 `json:"queue_full"`      // rejected enqueue attempts (admission backpressure)

	// QueuedWaitCycles is the controller's independent count of
	// request-cycles spent queued — the denominator the five in-queue
	// buckets must sum to.
	QueuedWaitCycles uint64 `json:"queued_wait_cycles"`
}

// Sum returns the total attributed in-queue waiting (every bucket
// except QueueFull). It equals QueuedWaitCycles when attribution ran.
func (s StallBreakdown) Sum() uint64 {
	return s.SAGConflict + s.CDConflict + s.BusConflict + s.WriteDrain + s.ControllerIdle
}

// stallBreakdownFrom converts the attribution engine's cause array.
func stallBreakdownFrom(causes [telemetry.NumStallCauses]uint64, queuedWait uint64) *StallBreakdown {
	return &StallBreakdown{
		SAGConflict:      causes[telemetry.StallSAGConflict],
		CDConflict:       causes[telemetry.StallCDConflict],
		BusConflict:      causes[telemetry.StallBusConflict],
		WriteDrain:       causes[telemetry.StallWriteDrain],
		ControllerIdle:   causes[telemetry.StallControllerIdle],
		QueueFull:        causes[telemetry.StallQueueFull],
		QueuedWaitCycles: queuedWait,
	}
}
