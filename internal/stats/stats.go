// Package stats provides the lightweight counters, distributions and
// aggregation helpers used by the simulator to report results.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
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

// Scalar accumulates a running sum of a float quantity (e.g. energy).
type Scalar struct {
	v float64
}

// Add accumulates delta into the scalar.
func (s *Scalar) Add(delta float64) { s.v += delta }

// Value returns the accumulated total.
func (s *Scalar) Value() float64 { return s.v }

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

// Set is an ordered collection of named values, used to assemble the
// per-run statistics report deterministically.
type Set struct {
	names  []string
	values map[string]float64
}

// NewSet returns an empty statistics set.
func NewSet() *Set {
	return &Set{values: make(map[string]float64)}
}

// Put records a named value, preserving first-insertion order.
func (s *Set) Put(name string, v float64) {
	if _, ok := s.values[name]; !ok {
		s.names = append(s.names, name)
	}
	s.values[name] = v
}

// Get returns the named value and whether it exists.
func (s *Set) Get(name string) (float64, bool) {
	v, ok := s.values[name]
	return v, ok
}

// Names returns the insertion-ordered names.
func (s *Set) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Len returns the number of recorded values.
func (s *Set) Len() int { return len(s.names) }

// String renders the set as "name=value" lines in insertion order.
func (s *Set) String() string {
	var b strings.Builder
	for _, n := range s.names {
		fmt.Fprintf(&b, "%s=%.6g\n", n, s.values[n])
	}
	return b.String()
}

// SortedNames returns the names in lexical order (for map-like use).
func (s *Set) SortedNames() []string {
	out := s.Names()
	sort.Strings(out)
	return out
}
