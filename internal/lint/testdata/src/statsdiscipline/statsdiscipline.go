// Package statsdiscipline is the fixture for the stats-discipline
// analyzer: counters are written only by their owning package.
package statsdiscipline

import (
	"repro/internal/controller"
	"repro/internal/stats"
)

// Own aggregates this package's counters: freely writable here.
type Own struct {
	Hits stats.Counter
	Lat  stats.Histogram
}

func record(o *Own) uint64 {
	o.Hits.Inc()     // allowed: field of an Own struct declared here
	o.Lat.Observe(1) // allowed
	var scratch stats.Counter
	scratch.Add(2) // allowed: bare local counter
	return scratch.Value()
}

// tamper reaches into the controller's statistics: flagged.
func tamper(st *controller.Stats) uint64 {
	st.Reads.Inc()                // want "owned by package"
	st.ReadLatencyHist.Observe(3) // want "owned by package"
	st.QueuedWaitCycles.Add(7)    // want "owned by package"
	return st.Reads.Value()       // allowed: reading is everyone's right
}

// replaySkip mimics fast-forward's batch credit of per-cycle
// counters (controller.SkipCycles) — legitimate inside the controller,
// flagged from any other package: an external replay would double-count
// the skipped window.
func replaySkip(st *controller.Stats, skipped, perCycle uint64) {
	st.ColumnReads.Add(skipped * perCycle) // want "owned by package"
	st.QueuedWaitCycles.Add(skipped)       // want "owned by package"
}

// replayOwnSkip does the same batch credit against this package's own
// counters: allowed, ownership is what the rule protects.
func replayOwnSkip(o *Own, skipped uint64) {
	o.Hits.Add(skipped)
}

var _ = []any{record, tamper, replaySkip, replayOwnSkip}
