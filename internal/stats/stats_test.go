package stats

import (
	"math"
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
