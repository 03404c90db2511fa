// The stall-attribution engine: the controller credits stall cycles to
// it per cause.

package telemetry

import (
	"repro/internal/addr"
	"repro/internal/stats"
)

// Attribution totals stall cycles by cause. It is the controller's one
// stall consumer (controller.Config.Attribution), credited through
// Stall. Conservation invariant: every cycle a request sits in a
// transaction queue after scheduling receives exactly one attributed
// cause, so the causes other than StallQueueFull sum to the
// controller's independently counted queued-wait cycles (asserted by
// the integration tests). QueueFull cycles are admission backpressure —
// the request is not in a queue — and are tracked outside that sum.
//
// Attribution is also a Sink whose event methods do nothing, so it can
// sit in a Fanout beside the event consumers, as the bench package's
// replica run puts it.
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

// Stall credits n cycles to cause. The controller calls it with
// n = k·w for k queued requests that share the cause over w cycles
// (w > 1 only for a fast-forwarded window), and with StallQueueFull
// for rejected enqueue attempts.
func (a *Attribution) Stall(cause StallCause, n uint64) { a.causes[cause].Add(n) }

// Causes returns the per-cause attributed cycle totals.
func (a *Attribution) Causes() [NumStallCauses]uint64 {
	var out [NumStallCauses]uint64
	for c := range a.causes {
		out[c] = a.causes[c].Value()
	}
	return out
}
