// The stall-attribution engine: aggregates StallEvents into per-cause
// totals, a per-tile matrix, and a per-request stall-cycle histogram.

package telemetry

import (
	"repro/internal/addr"
	"repro/internal/stats"
)

// attShard accumulates one channel's stall attribution. Requests never
// change channel, so a request's entire stall history lands in one
// shard and the per-request accumulation needs no cross-shard view;
// read-side merges sum uint64 event counts, which is exact in any
// order.
type attShard struct {
	cds    int // geometry CDs, for the tile flattening
	causes [NumStallCauses]stats.Counter

	// tiles[(sag*CDs)+cd] counts stall cycles attributed to requests
	// targeting that tile, summed over this channel's banks.
	tiles []stats.Counter

	// Per-request accumulation: stall cycles per request, flushed at
	// completion.
	perReq map[uint64]uint64
}

// stall folds one weighted stall event into the shard's aggregates.
func (s *attShard) stall(ev StallEvent, n uint64) {
	s.causes[ev.Cause].Add(n)
	if ev.Cause == StallQueueFull {
		return
	}
	s.tiles[ev.SAG*s.cds+ev.CD].Add(n)
	s.perReq[ev.ReqID] += n
}

// flush removes and returns a completed request's accumulated stall
// cycles (zero if it never stalled).
func (s *attShard) flush(id uint64) uint64 {
	n, ok := s.perReq[id]
	if ok {
		delete(s.perReq, id)
	}
	return n
}

// Attribution consumes stall and request events and aggregates them.
// Conservation invariant: every cycle a request sits in a transaction
// queue after scheduling receives exactly one attributed cause, so
// AttributedWait() equals the controller's independently counted
// queued-wait cycles (asserted by the integration tests). QueueFull
// cycles are admission backpressure — the request is not in a queue —
// and are tracked outside that sum.
//
// Accumulation is sharded by channel: every event carries its channel,
// the Sink methods route it to that channel's attShard, and the read
// accessors merge by addition. The completion histogram stays
// engine-side — completions fire on the serial engine in a defined
// order, and histogram observation order is the only order-sensitive
// aggregate here.
type Attribution struct {
	geom    addr.Geometry
	shards  []attShard
	reqHist stats.Histogram
}

// NewAttribution builds an attribution engine for a geometry. At least
// one shard always exists, so events from zero-valued test geometries
// land in channel 0.
func NewAttribution(g addr.Geometry) *Attribution {
	n := g.Channels
	if n < 1 {
		n = 1
	}
	shards := make([]attShard, n)
	for i := range shards {
		shards[i] = attShard{
			cds:    g.CDs,
			tiles:  make([]stats.Counter, g.SAGs*g.CDs),
			perReq: make(map[uint64]uint64),
		}
	}
	return &Attribution{geom: g, shards: shards}
}

// Command implements Sink (attribution ignores command spans).
func (a *Attribution) Command(Command) {}

// Request implements Sink: request completion flushes the per-request
// stall total into the histogram.
func (a *Attribution) Request(ev RequestEvent) {
	if ev.Phase != ReqCompleted {
		return
	}
	// Requests that never stalled (forwarded, coalesced, or serviced
	// immediately) observe zero, so the histogram's population is all
	// completed requests, not just the unlucky ones.
	a.reqHist.Observe(a.shards[ev.Loc.Channel].flush(ev.ID))
}

// Stall implements Sink. Events carry a cycle weight in N (0 means 1):
// the fast-forward path batches a constant-classification window into
// one weighted event, and weighting here keeps every aggregate equal to
// the cycle-by-cycle totals.
func (a *Attribution) Stall(ev StallEvent) {
	n := ev.N
	if n == 0 {
		n = 1
	}
	a.shards[ev.Loc.Channel].stall(ev, n)
}

// Causes returns the per-cause attributed cycle totals.
func (a *Attribution) Causes() [NumStallCauses]uint64 {
	var out [NumStallCauses]uint64
	for i := range a.shards {
		for c := range a.shards[i].causes {
			out[c] += a.shards[i].causes[c].Value()
		}
	}
	return out
}

// AttributedWait returns the total queued-wait cycles attributed — the
// sum of every cause except StallQueueFull.
func (a *Attribution) AttributedWait() uint64 {
	var sum uint64
	for i := range a.shards {
		for c := range a.shards[i].causes {
			if StallCause(c) == StallQueueFull {
				continue
			}
			sum += a.shards[i].causes[c].Value()
		}
	}
	return sum
}

// TileStalls returns the [SAG][CD] matrix of attributed stall cycles,
// summed over banks.
func (a *Attribution) TileStalls() [][]uint64 {
	out := make([][]uint64, a.geom.SAGs)
	for s := range out {
		out[s] = make([]uint64, a.geom.CDs)
		for c := range out[s] {
			for i := range a.shards {
				out[s][c] += a.shards[i].tiles[s*a.geom.CDs+c].Value()
			}
		}
	}
	return out
}

// PerRequestStalls returns the histogram of stall cycles accumulated by
// each completed request.
func (a *Attribution) PerRequestStalls() *stats.Histogram { return &a.reqHist }
