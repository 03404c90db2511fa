// Histogram: a log-bucketed latency histogram with percentile queries,
// used for the P50/P95/P99 read-latency reporting.

package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Histogram counts samples in power-of-two buckets: bucket i holds
// values in [2^(i-1), 2^i) with bucket 0 holding [0, 1). Percentiles
// are answered to within a factor of two, which is plenty for latency
// distributions spanning 10–10 000 cycles; the exact mean is tracked
// separately.
type Histogram struct {
	buckets [48]uint64
	n       uint64
	sum     float64
	min     uint64
	max     uint64
}

// bucketOf returns the bucket index for v.
func bucketOf(v uint64) int {
	if v == 0 {
		return 0
	}
	b := bits.Len64(v)
	if b >= len(Histogram{}.buckets) {
		return len(Histogram{}.buckets) - 1
	}
	return b
}

// Observe adds one sample.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bucketOf(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += float64(v)
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.n }

// Mean returns the exact sample mean (0 with no samples).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest sample (0 with no samples).
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest sample (0 with no samples).
func (h *Histogram) Max() uint64 { return h.max }

// Percentile returns an upper bound on the p-th percentile (p in
// [0,100]): the top of the bucket containing it, clamped to the
// observed maximum. Returns 0 with no samples. Out-of-range p clamps
// to the nearest endpoint — p < 0 behaves as 0 (the minimum sample),
// p > 100 as 100 (the maximum) — and NaN, having no defensible rank,
// also behaves as 0; float conversion of a NaN rank would otherwise be
// platform-dependent.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if p < 0 || math.IsNaN(p) {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			var top uint64
			switch {
			case i == 0:
				top = 0
			case i == len(h.buckets)-1:
				// The last bucket is open-ended (holds everything the
				// fixed range cannot): its only sound upper bound is
				// the observed maximum.
				top = h.max
			default:
				top = 1<<uint(i) - 1
			}
			if top > h.max {
				top = h.max
			}
			if top < h.min {
				top = h.min
			}
			return top
		}
	}
	return h.max
}

// String renders a compact summary.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d",
		h.n, h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.max)
}

// Render draws an ASCII bucket chart of the non-empty range.
func (h *Histogram) Render() string {
	if h.n == 0 {
		return "(empty)"
	}
	lo, hi := 0, 0
	var peak uint64
	for i, c := range h.buckets {
		if c > 0 {
			if peak == 0 {
				lo = i
			}
			hi = i
			if c > peak {
				peak = c
			}
		}
	}
	var b strings.Builder
	for i := lo; i <= hi; i++ {
		width := int(float64(h.buckets[i]) / float64(peak) * 30)
		lowEdge := uint64(0)
		if i > 0 {
			lowEdge = 1 << uint(i-1)
		}
		fmt.Fprintf(&b, "%8d.. %-30s %d\n", lowEdge, strings.Repeat("#", width), h.buckets[i])
	}
	return b.String()
}
