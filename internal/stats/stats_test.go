package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero counter not zero")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
}

func TestDistributionEmpty(t *testing.T) {
	var d Distribution
	if d.Count() != 0 || d.Mean() != 0 || d.Min() != 0 || d.Max() != 0 || d.Sum() != 0 {
		t.Fatal("empty distribution not all-zero")
	}
}

func TestDistribution(t *testing.T) {
	var d Distribution
	for _, v := range []float64{3, 1, 4, 1, 5} {
		d.Observe(v)
	}
	if d.Count() != 5 {
		t.Errorf("Count = %d", d.Count())
	}
	if d.Min() != 1 || d.Max() != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", d.Min(), d.Max())
	}
	if math.Abs(d.Mean()-2.8) > 1e-12 {
		t.Errorf("Mean = %v, want 2.8", d.Mean())
	}
	if d.Sum() != 14 {
		t.Errorf("Sum = %v, want 14", d.Sum())
	}
	if !strings.Contains(d.String(), "n=5") {
		t.Errorf("String = %q", d.String())
	}
}

func TestDistributionNegativeSamples(t *testing.T) {
	var d Distribution
	d.Observe(-5)
	d.Observe(-1)
	if d.Min() != -5 || d.Max() != -1 {
		t.Errorf("Min/Max = %v/%v, want -5/-1", d.Min(), d.Max())
	}
}

func TestGeoMean(t *testing.T) {
	g, err := GeoMean([]float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-2) > 1e-12 {
		t.Errorf("GeoMean(1,4) = %v, want 2", g)
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("empty geomean accepted")
	}
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Error("zero value accepted")
	}
	if _, err := GeoMean([]float64{-1}); err == nil {
		t.Error("negative value accepted")
	}
}

// Property: geomean lies between min and max, and geomean of identical
// values is that value.
func TestGeoMeanProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			vs[i] = float64(r)/100 + 0.01
			lo = math.Min(lo, vs[i])
			hi = math.Max(hi, vs[i])
		}
		g, err := GeoMean(vs)
		if err != nil {
			return false
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
}
