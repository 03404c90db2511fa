// The per-tile occupancy matrix: SAG × CD busy-cycle counters fed by
// command spans, rendered as a heatmap by internal/report.

package telemetry

import (
	"repro/internal/addr"
	"repro/internal/stats"
)

// Occupancy accumulates busy cycles per (SAG, CD) tile, summed over all
// banks and channels: the duration of every activation sense window,
// column-read burst and write pulse train landing on the tile. Column
// reads pipeline inside their activation's sense window, so a tile's
// total can exceed wall-clock cycles × banks; the matrix is a
// utilization measure (where did the machine spend its device time),
// not a duty cycle.
type Occupancy struct {
	geom addr.Geometry
	busy []stats.Counter // [(sag*CDs)+cd]
}

// NewOccupancy builds an occupancy matrix for a geometry.
func NewOccupancy(g addr.Geometry) *Occupancy {
	return &Occupancy{geom: g, busy: make([]stats.Counter, g.SAGs*g.CDs)}
}

// Command implements Sink.
func (o *Occupancy) Command(ev Command) {
	if ev.Kind == CmdBus {
		return // the bus is not a tile
	}
	o.busy[ev.SAG*o.geom.CDs+ev.CD].Add(uint64(ev.End - ev.Start))
}

// Request implements Sink (occupancy ignores request lifecycles).
func (o *Occupancy) Request(RequestEvent) {}

// Matrix returns the [SAG][CD] busy-cycle matrix.
func (o *Occupancy) Matrix() [][]uint64 {
	out := make([][]uint64, o.geom.SAGs)
	for s := range out {
		out[s] = make([]uint64, o.geom.CDs)
		for c := range out[s] {
			out[s][c] = o.busy[s*o.geom.CDs+c].Value()
		}
	}
	return out
}
