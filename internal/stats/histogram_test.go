package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram not all-zero")
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 2, 3, 4, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("Min/Max = %d/%d", h.Min(), h.Max())
	}
	if h.Mean() != 22 {
		t.Errorf("Mean = %v, want 22", h.Mean())
	}
	// p100 is the max exactly.
	if h.Percentile(100) != 100 {
		t.Errorf("P100 = %d, want 100", h.Percentile(100))
	}
	if s := h.String(); !strings.Contains(s, "n=5") {
		t.Errorf("String = %q", s)
	}
}

func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	h.Observe(0)
	if h.Percentile(50) != 0 || h.Max() != 0 {
		t.Fatal("zero sample mishandled")
	}
}

// Percentile answers must be correct to within the bucket resolution
// (a factor of two) against a sorted-slice oracle.
func TestHistogramPercentileProperty(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		vals := make([]uint64, len(raw))
		for i, r := range raw {
			vals[i] = uint64(r)
			h.Observe(uint64(r))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		p := float64(pRaw % 101)
		exact := vals[int(float64(len(vals)-1)*p/100)]
		got := h.Percentile(p)
		// Upper bound within 2x (bucket width), never below the exact
		// value's bucket floor.
		if got < exact/2 {
			return false
		}
		if exact > 0 && got > exact*2+1 && got > h.Max() {
			return false
		}
		return got <= h.Max() || h.Max() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		h.Observe(uint64(rng.Intn(100000)))
	}
	prev := uint64(0)
	for p := 0.0; p <= 100; p += 5 {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("P%.0f = %d < P%.0f = %d", p, v, p-5, prev)
		}
		prev = v
	}
}

func TestHistogramHugeValues(t *testing.T) {
	var h Histogram
	h.Observe(1 << 60) // beyond the last bucket boundary
	h.Observe(5)
	if h.Max() != 1<<60 {
		t.Fatal("max lost")
	}
	if h.Percentile(100) != 1<<60 {
		t.Fatalf("P100 = %d", h.Percentile(100))
	}
}

// Percentile must clamp out-of-range and NaN arguments to defined
// endpoints instead of producing platform-dependent rank conversions.
func TestHistogramPercentileClamping(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{1, 2, 4, 8, 1000} {
		h.Observe(v)
	}
	p0 := h.Percentile(0)
	p100 := h.Percentile(100)
	cases := []struct {
		name string
		p    float64
		want uint64
	}{
		{"negative clamps to 0", -5, p0},
		{"negative infinity clamps to 0", math.Inf(-1), p0},
		{"above 100 clamps to 100", 150, p100},
		{"positive infinity clamps to 100", math.Inf(1), p100},
		{"NaN behaves as 0", math.NaN(), p0},
		{"exact 0", 0, h.Min()},
		{"exact 100", 100, h.Max()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := h.Percentile(tc.p); got != tc.want {
				t.Errorf("Percentile(%v) = %d, want %d", tc.p, got, tc.want)
			}
		})
	}

	// The same arguments on an empty histogram stay 0.
	var empty Histogram
	for _, p := range []float64{-1, 0, 50, 100, 101, math.NaN()} {
		if got := empty.Percentile(p); got != 0 {
			t.Errorf("empty.Percentile(%v) = %d, want 0", p, got)
		}
	}
}
