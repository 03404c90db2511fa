package main

import (
	"math"
	"testing"
)

// runs returns n values centred on mid, spread evenly over ±jitter.
func runs(n int, mid, jitter float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = mid + jitter*(2*float64(i)/float64(n-1)-1)
	}
	return v
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sim_minstr_per_s", Unit: "Minstr/s", Better: "higher", Bound: 0.10}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same runs", lower, runs(10, 100, 2), runs(10, 100, 2), verdictUnchanged},
		{"faster in every pair", lower, runs(10, 100, 2), runs(10, 90, 2), verdictImproved},
		{"slower beyond the bound", lower, runs(10, 100, 2), runs(10, 115, 2), verdictRegressed},
		{"slower within the bound", lower, runs(10, 100, 2), runs(10, 105, 2), verdictUnchanged},
		{"throughput up", higher, runs(10, 10, 0.2), runs(10, 11, 0.2), verdictImproved},
		{"throughput down beyond the bound", higher, runs(10, 10, 0.2), runs(10, 8.5, 0.2), verdictRegressed},
		{"spread wider than the bound", lower, runs(10, 100, 40), runs(10, 104, 40), verdictUnresolved},
		{"wide spread, every change run better", lower, runs(10, 100, 5), runs(10, 50, 5), verdictImproved},
		{"fewer than ten runs", lower, runs(9, 100, 2), runs(9, 80, 2), verdictUnresolved},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := judge(c.d, c.a, c.b); got.Verdict != c.want {
				t.Errorf("verdict %s, want %s (%+v)", got.Verdict, c.want, got)
			}
		})
	}
}

func TestJudgeWinFractionCountsNoTies(t *testing.T) {
	d := metricDef{Better: "lower", Bound: 0.10}
	a := runs(10, 100, 1)
	b := append([]float64(nil), a...)
	b[0], b[1] = 50, 200 // one win, one loss, eight ties
	if got := judge(d, a, b).WinFrac; got != 0.1 {
		t.Errorf("win fraction %v, want 0.1", got)
	}
}

func TestPercentileGuard(t *testing.T) {
	if _, err := percentile(runs(99, 10, 5), 90); err == nil {
		t.Error("p90 of 99 samples: want an error (nine samples beyond it)")
	}
	got, err := percentile(runs(100, 10, 5), 90)
	if err != nil {
		t.Fatal(err)
	}
	if want := runs(100, 10, 5)[89]; got != want {
		t.Errorf("p90 = %v, want the 90th smallest %v", got, want)
	}
	if _, err := percentile(runs(19, 10, 5), 50); err == nil {
		t.Error("p50 of 19 samples: want an error")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5].
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	} {
		q1, m, q3 := quartiles(c.xs)
		if got := [3]float64{q1, m, q3}; math.Abs(got[0]-c.want[0])+math.Abs(got[1]-c.want[1])+math.Abs(got[2]-c.want[2]) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
