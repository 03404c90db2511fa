// The stall-attribution engine: aggregates stall calls into per-cause
// totals.

package telemetry

import (
	"repro/internal/addr"
	"repro/internal/stats"
)

// Attribution consumes stall events and totals them by cause.
// Conservation invariant: every cycle a request sits in a transaction
// queue after scheduling receives exactly one attributed cause, so the
// causes other than StallQueueFull sum to the controller's
// independently counted queued-wait cycles (asserted by the
// integration tests). QueueFull cycles are admission backpressure —
// the request is not in a queue — and are tracked outside that sum.
type Attribution struct {
	causes [NumStallCauses]stats.Counter
}

// NewAttribution builds an attribution engine. The totals do not
// depend on the geometry; the parameter keeps the constructor's shape
// shared with NewOccupancy and NewTrace.
func NewAttribution(addr.Geometry) *Attribution { return &Attribution{} }

// Command implements Sink (attribution ignores command spans).
func (a *Attribution) Command(Command) {}

// Request implements Sink (attribution ignores request lifecycles).
func (a *Attribution) Request(RequestEvent) {}

// Stall implements Sink. The fast-forward path batches a
// constant-classification window into one call of weight n, and
// weighting here keeps every total equal to the cycle-by-cycle count.
func (a *Attribution) Stall(cause StallCause, n uint64) { a.causes[cause].Add(n) }

// Causes returns the per-cause attributed cycle totals.
func (a *Attribution) Causes() [NumStallCauses]uint64 {
	var out [NumStallCauses]uint64
	for c := range a.causes {
		out[c] = a.causes[c].Value()
	}
	return out
}
