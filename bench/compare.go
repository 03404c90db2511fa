package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts. A gain needs the change to win nine tenths of the pairs and
// to move the median by more than the parent's own quartile spread; a
// regression is a median worse by more than the metric's bound; a
// spread wider than the bound leaves the metric unresolved unless every
// change run beats every parent run.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// minRuns is the fewest runs per side compare judges.
const minRuns = 10

type sideStats struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

type comparison struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Bound    float64   `json:"bound"`
	A        sideStats `json:"a"`
	B        sideStats `json:"b"`
	// Change is B's median relative to A's, signed so that positive is
	// worse; Spread is the wider side's quartile distance over its median.
	Change  float64 `json:"change"`
	Spread  float64 `json:"spread"`
	Pairs   int     `json:"pairs"`
	WinFrac float64 `json:"win_frac"` // pairs where B beats A, ties counting for neither
	Verdict string  `json:"verdict"`
}

func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "print the comparisons as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-json] PARENT.json CHANGE.json (records appended by -o; pairs in file order)")
		return 2
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	rows := compareRecords(a, b)
	if *asJSON {
		out, err := json.MarshalIndent(struct {
			A    host         `json:"host_a"`
			B    host         `json:"host_b"`
			Rows []comparison `json:"comparisons"`
		}{a[0].Host, b[0].Host, rows}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", out)
	} else {
		fmt.Fprintf(stdout, "A: %+v\nB: %+v\n", a[0].Host, b[0].Host)
		fmt.Fprintf(stdout, "%-13s %-17s %-30s %-30s %8s %7s %5s %6s  %s\n",
			"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "spread", "win", "bound", "verdict")
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-13s %-17s %-30s %-30s %+7.2f%% %6.2f%% %5.2f %5.0f%%  %s\n",
				r.Workload, r.Metric, r.A, r.B, 100*r.Change, 100*r.Spread, r.WinFrac, 100*r.Bound, r.Verdict)
		}
	}
	for _, r := range rows {
		if r.Verdict == verdictRegressed {
			return 1
		}
	}
	return 0
}

// readRecords reads the records of a file that -o appended to.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return recs, nil
}

// compareRecords judges every workload x end-to-end metric pair present
// on both sides. Records of a workload pair up in file order.
func compareRecords(a, b []record) []comparison {
	values := func(recs []record, w, m string) []float64 {
		var v []float64
		for _, r := range recs {
			if x, ok := r.Metrics[m]; ok && r.Workload == w {
				v = append(v, x.Value)
			}
		}
		return v
	}
	var rows []comparison
	for _, w := range workloads {
		for _, d := range endToEnd {
			av, bv := values(a, w.name, d.Name), values(b, w.name, d.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			c := judge(d, av, bv)
			c.Workload = w.name
			rows = append(rows, c)
		}
	}
	return rows
}

// judge applies the verdict rule to one metric's runs; a[i] and b[i]
// form pair i.
func judge(d metricDef, a, b []float64) comparison {
	c := comparison{Metric: d.Name, Unit: d.Unit, Bound: d.Bound, A: side(a), B: side(b)}
	// worse reports whether y reads worse than x.
	worse := func(x, y float64) bool {
		if d.Better == "higher" {
			return y < x
		}
		return y > x
	}
	if c.A.Median != 0 {
		c.Change = (c.B.Median - c.A.Median) / c.A.Median
		if d.Better == "higher" {
			c.Change = -c.Change
		}
	}
	c.Spread = max(relSpread(c.A), relSpread(c.B))
	c.Pairs = min(len(a), len(b))
	wins := 0
	for i := 0; i < c.Pairs; i++ {
		if worse(b[i], a[i]) {
			wins++
		}
	}
	if c.Pairs > 0 {
		c.WinFrac = float64(wins) / float64(c.Pairs)
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if !worse(y, x) {
				allBetter = false
			}
		}
	}
	switch {
	case len(a) < minRuns || len(b) < minRuns:
		c.Verdict = verdictUnresolved
	case c.WinFrac >= 0.9 && worse(c.B.Median, c.A.Median) && math.Abs(c.B.Median-c.A.Median) > c.A.Q3-c.A.Q1:
		c.Verdict = verdictImproved
	case c.Spread > d.Bound && !allBetter:
		c.Verdict = verdictUnresolved
	case c.Change > d.Bound:
		c.Verdict = verdictRegressed
	default:
		c.Verdict = verdictUnchanged
	}
	return c
}

func (s sideStats) String() string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", s.Median, s.Q1, s.Q3)
}

func side(xs []float64) sideStats {
	s := sideStats{N: len(xs), Median: median(xs)}
	s.Q1, s.Q3 = s.Median, s.Median
	if len(xs) >= 2 {
		s.Q1, _, s.Q3 = quartiles(xs)
	}
	return s
}

func relSpread(s sideStats) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
