// Package stats provides the lightweight counters, the latency
// histogram and the aggregation helpers used by the simulator to
// report results.
package stats

import (
	"fmt"
	"math"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// GeoMean returns the geometric mean of vs. Non-positive inputs are
// rejected with an error since their log is undefined; the paper's
// figures report geometric means of speedups, which are always positive.
func GeoMean(vs []float64) (float64, error) {
	if len(vs) == 0 {
		return 0, fmt.Errorf("stats: geomean of empty slice")
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0, fmt.Errorf("stats: geomean of non-positive value %v", v)
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs))), nil
}

// Mean returns the arithmetic mean of vs (0 for an empty slice).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
