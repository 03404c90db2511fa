package fgnvm

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func TestSweepAxisByName(t *testing.T) {
	for _, a := range SweepAxes() {
		got, err := SweepAxisByName(a.Name)
		if err != nil || got.Name != a.Name {
			t.Fatalf("SweepAxisByName(%q) = %v, %v", a.Name, got.Name, err)
		}
		if len(a.Default) == 0 {
			t.Errorf("axis %q has no default values", a.Name)
		}
	}
	if _, err := SweepAxisByName("voltage"); err == nil {
		t.Fatal("unknown axis accepted")
	}
}

func TestSweepShapeAndDeterminism(t *testing.T) {
	p := SweepParams{
		Axis: "cds", Values: []int{1, 4}, Design: DesignFgNVM,
		Benchmark: "mcf", Instructions: tinyInstr, Parallel: 1,
	}
	serial, err := Sweep(p)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Axis != "cds" || len(serial.Points) != 2 {
		t.Fatalf("unexpected sweep result: %+v", serial)
	}
	for i, want := range []int{1, 4} {
		pt := serial.Points[i]
		if pt.Value != want {
			t.Errorf("point %d: value %d, want %d (order must be deterministic)", i, pt.Value, want)
		}
		if pt.IPC <= 0 || pt.Speedup <= 0 {
			t.Errorf("point %d implausible: %+v", i, pt)
		}
	}
	// More CDs never hurt energy at fixed SAGs (Figure 5's direction).
	if serial.Points[1].RelEnergy >= serial.Points[0].RelEnergy {
		t.Errorf("energy not improving with CDs: %.3f -> %.3f",
			serial.Points[0].RelEnergy, serial.Points[1].RelEnergy)
	}

	p.Parallel = 4
	parallel, err := Sweep(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Points {
		if serial.Points[i] != parallel.Points[i] {
			t.Fatalf("point %d differs across parallelism: %+v vs %+v",
				i, serial.Points[i], parallel.Points[i])
		}
	}
}

func TestSweepContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SweepContext(ctx, SweepParams{Axis: "cds", Values: []int{1, 2}, Benchmark: "mcf", Instructions: tinyInstr})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled SweepContext err = %v, want context.Canceled", err)
	}
}

// TestSweepPointOverBankBudget: a many-banks sweep point whose grid
// flattens into a million banks fails with the bank-state budget error
// instead of allocating them (about 760 MB).
func TestSweepPointOverBankBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := SweepContext(context.Background(), SweepParams{
		Axis: "sags", Values: []int{65536}, Design: DesignManyBanks, Benchmark: "mcf", Instructions: tinyInstr,
	})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "bank-state budget") {
		t.Fatalf("err = %v, want the bank-state budget error", err)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > 64 {
		t.Errorf("the rejected sweep allocated %.1f MB", mb)
	}
}

// TestPlanSweepCanonicalParams: the plan carries its parameters with
// every default explicit, planning them again changes nothing, and an
// unknown benchmark or a value no run accepts is refused before any
// simulation.
func TestPlanSweepCanonicalParams(t *testing.T) {
	plan, err := PlanSweep(SweepParams{Axis: "sags"})
	if err != nil {
		t.Fatal(err)
	}
	p := plan.Params
	if !reflect.DeepEqual(p.Values, []int{2, 4, 8, 16, 32}) || p.Benchmark != "mcf" ||
		p.Instructions != 100_000 || p.Seed != 1 || p.Design != DesignBaseline {
		t.Errorf("canonical params = %+v", p)
	}
	again, err := PlanSweep(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Params, p) || !reflect.DeepEqual(again.Jobs, plan.Jobs) {
		t.Error("planning canonical params again changed them")
	}

	ws, err := PlanSweep(SweepParams{Axis: "tiling", Benchmark: "lbm", Workload: &WorkloadSpec{Preset: "gpt2s-attn-score"}})
	if err != nil {
		t.Fatal(err)
	}
	if w := ws.Params.Workload; w == nil || w.Tiling != "sag" || ws.Params.Benchmark != "" {
		t.Errorf("workload sweep params = %+v (workload %+v)", ws.Params, w)
	}

	if _, err := PlanSweep(SweepParams{Axis: "cds", Benchmark: "nope"}); err == nil {
		t.Error("unknown benchmark planned")
	}
	// Values a run refuses are refused by the plan, before any point
	// runs: a grid that is not a power of two, more cores than a run
	// takes, and a ROB past maxCoreParam.
	for _, p := range []SweepParams{
		{Axis: "cds", Design: DesignFgNVM, Values: []int{2, 3}},
		{Axis: "cores", Values: []int{maxCores + 1}},
		{Axis: "rob", Values: []int{maxCoreParam + 1}},
	} {
		if _, err := PlanSweep(p); err == nil {
			t.Errorf("%s sweep over %v planned", p.Axis, p.Values)
		}
	}
}
