// Package stats provides the lightweight counters, distributions and
// aggregation helpers used by the simulator to report results.
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

// Distribution tracks min/max/mean of a stream of samples without
// retaining them.
type Distribution struct {
	n        uint64
	sum      float64
	min, max float64
}

// Observe adds one sample.
func (d *Distribution) Observe(v float64) {
	if d.n == 0 || v < d.min {
		d.min = v
	}
	if d.n == 0 || v > d.max {
		d.max = v
	}
	d.n++
	d.sum += v
}

// Count returns the number of samples observed.
func (d *Distribution) Count() uint64 { return d.n }

// Mean returns the sample mean, or 0 with no samples.
func (d *Distribution) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Min returns the smallest sample, or 0 with no samples.
func (d *Distribution) Min() float64 {
	if d.n == 0 {
		return 0
	}
	return d.min
}

// Max returns the largest sample, or 0 with no samples.
func (d *Distribution) Max() float64 {
	if d.n == 0 {
		return 0
	}
	return d.max
}

// Sum returns the total of all samples.
func (d *Distribution) Sum() float64 { return d.sum }

func (d *Distribution) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f max=%.3f", d.n, d.Mean(), d.Min(), d.Max())
}

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
