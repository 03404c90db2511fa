package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the
// repository root declares the benchmark in, in step with the tables
// the benchmark reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int                          `json:"run_seconds"`
		Workloads  []struct{ Name, Why string } `json:"workloads"`
		EndToEnd   []metricDef                  `json:"end_to_end"`
		PerLayer   []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the pass counts are sized to %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q", i, got, w.name, w.why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", spec.PerLayer, perLayer)
	}
	var maxBound float64
	var setup metricDef
	for _, d := range endToEnd {
		maxBound = max(maxBound, d.Bound)
		if d.Name == "setup_s" {
			setup = d
		}
	}
	if want := (metricDef{"setup_s", "s", "lower", maxBound}); setup != want {
		t.Errorf("setup_s is %+v, want %+v: set-up time carries the largest bound", setup, want)
	}
}

// TestRunLength checks that every workload's timed passes give p90 its
// ten samples beyond and put p50 and p90 inside one op's cluster of
// samples, and that another run length than the benchmark's own is
// refused before anything runs.
func TestRunLength(t *testing.T) {
	for _, w := range workloads {
		n := w.passes * len(w.ops(1))
		if _, err := percentile(make([]float64, n), 90); err != nil {
			t.Errorf("%s: %d passes x %d ops: %v", w.name, w.passes, n/w.passes, err)
		}
		for _, p := range []float64{50, 90} {
			rank := int(math.Ceil(p / 100 * float64(n)))
			if i := rank % w.passes; w.name != "paper-matrix" && (i == 0 || i == 1) {
				t.Errorf("%s: p%g is an edge sample of an op's %d", w.name, p, w.passes)
			}
		}
	}
	other := fmt.Sprint(runSeconds + 5)
	if code := benchMain([]string{"-seconds", other}, io.Discard); code != 2 {
		t.Errorf("-seconds %s: exit %d, want 2", other, code)
	}
}

// TestReportLastLine checks the result line: one JSON object with
// exactly correct, attempted, failed and metrics, each metric a value
// and a unit.
func TestReportLastLine(t *testing.T) {
	rec := record{Workload: "sweep", Correct: true, Attempted: 3, Metrics: map[string]metric{}}
	for _, d := range endToEnd {
		rec.Metrics[d.Name] = metric{Value: 1.5, Unit: d.Unit, Samples: 100}
	}
	var out bytes.Buffer
	if err := report(&out, rec, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	if len(keys) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("result keys %v", keys)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(metrics), len(endToEnd))
	}
	for name, m := range metrics {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("metric %s = %v, want value and unit", name, m)
		}
	}
}

// TestNoPlannedForDeletionOptions keeps the benchmark off the Options
// fields the roadmap plans to delete, so removing them never edits it.
func TestNoPlannedForDeletionOptions(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"DisableParallelEngine", "DisableLocalDelivery", "EngineStats", "DisableFastForward", "DisableSchedIndex"} {
			if bytes.Contains(src, []byte(field)) {
				t.Errorf("%s uses Options.%s", f, field)
			}
		}
	}
}
