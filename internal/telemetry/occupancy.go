// The per-tile occupancy matrix: SAG × CD busy-cycle counters fed by
// command spans, rendered as a heatmap by internal/report.

package telemetry

import (
	"repro/internal/addr"
	"repro/internal/stats"
)

// occShard accumulates one channel's tile occupancy. Command spans
// carry their bank's channel, so every span lands in exactly one
// shard; the read-side merge sums uint64 cycle counts, exact in any
// order.
type occShard struct {
	cds   int              // geometry CDs, for the tile flattening
	busy  []stats.Counter  // [(sag*CDs)+cd]
	kinds [3]stats.Counter // cycles by command kind: ACT, RD, WR
}

// command folds one command span into the shard's counters.
func (s *occShard) command(ev Command) {
	d := uint64(ev.End - ev.Start)
	s.busy[ev.SAG*s.cds+ev.CD].Add(d)
	s.kinds[ev.Kind].Add(d)
}

// Occupancy accumulates busy cycles per (SAG, CD) tile, summed over all
// banks: the duration of every activation sense window, column-read
// burst and write pulse train landing on the tile. Column reads
// pipeline inside their activation's sense window, so a tile's total
// can exceed wall-clock cycles × banks; the matrix is a utilization
// measure (where did the machine spend its device time), not a duty
// cycle. Accumulation is sharded by the span's channel; the accessors
// merge by addition.
type Occupancy struct {
	geom   addr.Geometry
	shards []occShard
}

// NewOccupancy builds an occupancy matrix for a geometry. At least one
// shard always exists, so spans from zero-valued test geometries land
// in channel 0.
func NewOccupancy(g addr.Geometry) *Occupancy {
	n := g.Channels
	if n < 1 {
		n = 1
	}
	shards := make([]occShard, n)
	for i := range shards {
		shards[i] = occShard{cds: g.CDs, busy: make([]stats.Counter, g.SAGs*g.CDs)}
	}
	return &Occupancy{geom: g, shards: shards}
}

// Command implements Sink.
func (o *Occupancy) Command(ev Command) {
	if ev.Kind == CmdBus {
		return // the bus is not a tile
	}
	o.shards[ev.Bank.Channel].command(ev)
}

// Request implements Sink (occupancy ignores request lifecycles).
func (o *Occupancy) Request(RequestEvent) {}

// Stall implements Sink (occupancy ignores stalls).
func (o *Occupancy) Stall(StallEvent) {}

// Matrix returns the [SAG][CD] busy-cycle matrix.
func (o *Occupancy) Matrix() [][]uint64 {
	out := make([][]uint64, o.geom.SAGs)
	for s := range out {
		out[s] = make([]uint64, o.geom.CDs)
		for c := range out[s] {
			for i := range o.shards {
				out[s][c] += o.shards[i].busy[s*o.geom.CDs+c].Value()
			}
		}
	}
	return out
}

// KindCycles returns total busy cycles split by command kind
// (activate, read, write).
func (o *Occupancy) KindCycles() (act, rd, wr uint64) {
	for i := range o.shards {
		act += o.shards[i].kinds[CmdActivate].Value()
		rd += o.shards[i].kinds[CmdRead].Value()
		wr += o.shards[i].kinds[CmdWrite].Value()
	}
	return act, rd, wr
}
