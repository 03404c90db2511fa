package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef declares one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are measured with tracing off. BENCHMARK.json mirrors this
// table (TestBenchmarkJSONMatchesTables).
var endToEnd = []metricDef{
	{"sim_minstr_per_s", "Minstr/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_run", "count", "lower", 0.15},
	{"alloc_mb_per_run", "MB", "lower", 0.15},
}

// perLayer come from the traced pass.
var perLayer = []metricDef{
	{Name: "sim.events_per_run", Unit: "count", Better: "lower"},
	{Name: "sim.share", Unit: "fraction", Better: "lower"},
	{Name: "cpu.cycle_calls_per_run", Unit: "count", Better: "lower"},
	{Name: "cpu.self_share", Unit: "fraction", Better: "lower"},
	{Name: "cpu.ns_per_cycle_call", Unit: "ns", Better: "lower"},
	{Name: "cpu.llc_miss_rate", Unit: "fraction", Better: "lower"},
	{Name: "trace.next_calls_per_run", Unit: "count", Better: "lower"},
	{Name: "trace.share", Unit: "fraction", Better: "lower"},
	{Name: "trace.ns_per_next", Unit: "ns", Better: "lower"},
	{Name: "controller.cycle_calls_per_run", Unit: "count", Better: "lower"},
	{Name: "controller.share", Unit: "fraction", Better: "lower"},
	{Name: "controller.ns_per_cycle_call", Unit: "ns", Better: "lower"},
	{Name: "controller.issue_frac", Unit: "fraction", Better: "higher"},
	{Name: "controller.enqueue_calls_per_run", Unit: "count", Better: "lower"},
	{Name: "controller.enqueue_reject_frac", Unit: "fraction", Better: "lower"},
	{Name: "controller.enqueue_share", Unit: "fraction", Better: "lower"},
	{Name: "ff.probes_per_run", Unit: "count", Better: "lower"},
	{Name: "ff.jump_frac", Unit: "fraction", Better: "higher"},
	{Name: "ff.skipped_cycle_frac", Unit: "fraction", Better: "higher"},
	{Name: "ff.share", Unit: "fraction", Better: "lower"},
	{Name: "setup.ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "setup.share", Unit: "fraction", Better: "lower"},
	{Name: "setup.warmup_accesses_per_run", Unit: "count", Better: "lower"},
	{Name: "engine.default_over_replica", Unit: "ratio", Better: "lower"},
	{Name: "telemetry.events_per_run", Unit: "count", Better: "lower"},
	{Name: "telemetry.trace_mb_per_run", Unit: "MB", Better: "lower"},
	{Name: "telemetry.export_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "telemetry.overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "sweep.point_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sweep.fanout_efficiency", Unit: "fraction", Better: "higher"},
	{Name: "tracing.overhead_frac", Unit: "fraction", Better: "lower"},
}

// metric is one reported value with the number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs, refusing
// when fewer than minBeyond samples lie above it (p90 needs 100).
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs at least %d samples beyond it, have %d samples", p, minBeyond, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(rank, 1)-1], nil
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) ("exclusive"),
// so spreads read the same as in an external check. len(xs) >= 2.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the median of xs, 0 when empty.
func median(xs []float64) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	_, m, _ := quartiles(xs)
	return m
}
