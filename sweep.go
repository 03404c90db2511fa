// Design-space sweep harness: one-dimensional parameter sweeps with
// baseline-normalized outputs, used by cmd/fgnvm-sweep and by the
// serving layer's /v1/sweep endpoint. Runs go through the same runner
// as the figure harnesses; results land in caller-visible order
// regardless of scheduling, and each simulation is deterministic, so
// output is identical at any parallelism.

package fgnvm

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/gemm"
)

// SweepAxis describes one sweepable parameter: how a value applies to
// an Options set, its default value list, and whether the baseline run
// used for normalization must see the value too (core-side and
// workload-side axes must, or the normalization would mix effects).
type SweepAxis struct {
	Name    string
	Affects string
	Default []int
	// appliesToBaseline marks axes whose value changes the workload or
	// the CPU rather than the memory design under test.
	appliesToBaseline bool
	apply             func(o *Options, v int)
}

// SweepAxes returns the supported sweep axes in presentation order.
func SweepAxes() []SweepAxis {
	return []SweepAxis{
		{Name: "cds", Affects: "column divisions", Default: []int{1, 2, 4, 8, 16, 32},
			apply: func(o *Options, v int) { o.CDs = v }},
		{Name: "sags", Affects: "subarray groups", Default: []int{2, 4, 8, 16, 32},
			apply: func(o *Options, v int) { o.SAGs = v }},
		{Name: "lanes", Affects: "issue lanes", Default: []int{1, 2, 4, 8},
			apply: func(o *Options, v int) { o.IssueLanes = v }},
		{Name: "cores", Affects: "cores sharing memory", Default: []int{1, 2, 4}, appliesToBaseline: true,
			apply: func(o *Options, v int) { o.Cores = v }},
		{Name: "rob", Affects: "reorder buffer entries", Default: []int{64, 128, 256, 512}, appliesToBaseline: true,
			apply: func(o *Options, v int) { o.Core.ROB = v }},
		{Name: "mshrs", Affects: "outstanding misses", Default: []int{8, 16, 32, 64}, appliesToBaseline: true,
			apply: func(o *Options, v int) { o.Core.MSHRs = v }},
		{Name: "tile", Affects: "device tile side (cells)", Default: []int{512, 1024, 2048, 4096}, appliesToBaseline: true,
			apply: func(o *Options, v int) { o.Device = &DeviceParams{TileRows: v, TileCols: v} }},
		// The tiling axis sweeps the GEMM lowering strategy (values index
		// WorkloadTilings) and therefore requires SweepParams.Workload.
		// It is workload-side: the baseline must run the same lowering.
		{Name: "tiling", Affects: "GEMM tiling strategy", Default: []int{0, 1, 2, 3}, appliesToBaseline: true,
			apply: func(o *Options, v int) {
				if o.Workload != nil {
					o.Workload.Tiling = gemm.Tiling(v).String()
				}
			}},
	}
}

// SweepAxisByName finds a sweep axis by name.
func SweepAxisByName(name string) (SweepAxis, error) {
	var names []string
	for _, a := range SweepAxes() {
		if a.Name == name {
			return a, nil
		}
		names = append(names, a.Name)
	}
	return SweepAxis{}, fmt.Errorf("fgnvm: unknown sweep axis %q (want one of %s)",
		name, strings.Join(names, ", "))
}

// SweepParams configures one sweep. Zero values take the axis defaults,
// the mcf benchmark, 100 000 instructions and seed 1; PlanSweep makes
// them explicit.
type SweepParams struct {
	// Axis names the swept parameter (see SweepAxes).
	Axis string
	// Values are the axis values to evaluate (default: axis-specific).
	Values []int
	// Design is the design under sweep. The zero value is
	// DesignBaseline, which ignores SAGs and CDs: a zero-Design "cds" or
	// "sags" sweep runs the baseline against itself at every point.
	// Callers that sweep FgNVM must say so.
	Design Design
	// Benchmark is the workload profile (default "mcf"). Ignored when
	// Workload is set.
	Benchmark string
	// Workload sweeps a GEMM workload instead of a benchmark profile;
	// required by the "tiling" axis.
	Workload *WorkloadSpec
	// SkipLLC feeds the workload straight to the memory system. GEMM
	// sweeps usually want this: with the LLC in the path, tile reuse is
	// absorbed and every tiling strategy scores identically.
	SkipLLC bool
	// Instructions per run (default 100 000) and workload Seed (default 1).
	Instructions uint64
	Seed         uint64
	// Parallel is the number of sweep points simulated concurrently
	// (default GOMAXPROCS, capped at the point count). Results are
	// identical at any width.
	Parallel int
}

// SweepPoint is one row of a sweep: the design's result at one axis
// value, normalized to a baseline run at the same workload/core knobs.
type SweepPoint struct {
	Value           int     `json:"value"`
	IPC             float64 `json:"ipc"`
	Speedup         float64 `json:"speedup"`
	RelEnergy       float64 `json:"rel_energy"`
	AvgReadLatency  float64 `json:"avg_read_lat"`
	P95ReadLatency  uint64  `json:"p95_read_lat"`
	BackgroundedRds uint64  `json:"bg_reads"`
}

// SweepResult is a full sweep in axis-value order.
type SweepResult struct {
	Axis      string       `json:"axis"`
	Design    string       `json:"design"`
	Benchmark string       `json:"benchmark"`
	Points    []SweepPoint `json:"points"`
}

// Sweep runs a one-dimensional design-space sweep.
func Sweep(p SweepParams) (SweepResult, error) {
	return SweepContext(context.Background(), p)
}

// SweepJob is one planned point of a sweep: the fully resolved Options
// for the design under test and for the normalization baseline at one
// axis value. Jobs are independent — a job can be simulated on any
// worker, any replica, in any order — and deterministic: the same
// SweepParams always plan the same jobs.
type SweepJob struct {
	// Index is the job's position in the plan (and the point's position
	// in the assembled SweepResult).
	Index int
	// Value is the axis value this job evaluates.
	Value int
	// Options configures the design-under-test run; Baseline the
	// normalization run the point's Speedup/RelEnergy are relative to.
	Options  Options
	Baseline Options
}

// SweepPlan is a validated, fully-resolved sweep: the metadata of the
// eventual SweepResult plus one job per point. The plan is the unit
// the scale-out layer shards: any partition of Jobs across replicas
// assembles into the same SweepResult, byte for byte.
type SweepPlan struct {
	Axis      string
	Design    string
	Benchmark string
	Jobs      []SweepJob
	// Params is the canonical form of the planned SweepParams: every
	// default explicit, a Workload canonicalized (see
	// WorkloadSpec.Canonical) and Benchmark cleared beside it. Sweeps
	// with equal Params (Parallel aside) plan equal jobs.
	Params SweepParams
}

// PlanSweep validates p, makes its defaults explicit, and expands it
// into one job per axis value; every job's runs must pass
// Options.Canonical, so a value no run accepts is refused here. SweepContext executes exactly this plan,
// so a caller that runs the jobs itself (the serving layer's sharded
// and streaming paths) reproduces Sweep's output exactly via Assemble.
func PlanSweep(p SweepParams) (SweepPlan, error) {
	ax, err := SweepAxisByName(p.Axis)
	if err != nil {
		return SweepPlan{}, err
	}
	if len(p.Values) == 0 {
		p.Values = ax.Default
	}
	if p.Instructions == 0 {
		p.Instructions = 100_000
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	switch {
	case p.Workload != nil:
		w, err := p.Workload.Canonical()
		if err != nil {
			return SweepPlan{}, err
		}
		p.Workload, p.Benchmark = &w, ""
	case ax.Name == "tiling":
		return SweepPlan{}, fmt.Errorf("fgnvm: the tiling axis requires SweepParams.Workload")
	default:
		if p.Benchmark == "" {
			p.Benchmark = "mcf"
		}
		if err := checkBenchmark(p.Benchmark); err != nil {
			return SweepPlan{}, err
		}
	}
	if ax.Name == "tiling" {
		for _, v := range p.Values {
			if v < 0 || v >= len(WorkloadTilings()) {
				return SweepPlan{}, fmt.Errorf("fgnvm: tiling axis value %d out of range [0, %d)",
					v, len(WorkloadTilings()))
			}
		}
	}
	label := p.Benchmark
	if p.Workload != nil {
		label = p.Workload.label()
	}
	plan := SweepPlan{
		Params:    p,
		Axis:      ax.Name,
		Design:    p.Design.String(),
		Benchmark: label,
		Jobs:      make([]SweepJob, len(p.Values)),
	}
	for i, v := range p.Values {
		o := Options{
			Design: p.Design, SAGs: 8, CDs: 2,
			Instructions: p.Instructions, Seed: p.Seed,
			SkipLLC: p.SkipLLC,
		}
		b := Options{
			Design:       DesignBaseline,
			Instructions: p.Instructions, Seed: p.Seed,
			SkipLLC: p.SkipLLC,
		}
		if p.Workload != nil {
			// Private copies: apply may mutate the spec (tiling axis).
			ow, bw := *p.Workload, *p.Workload
			o.Workload, b.Workload = &ow, &bw
		} else {
			o.Benchmark, b.Benchmark = p.Benchmark, p.Benchmark
		}
		ax.apply(&o, v)
		if ax.appliesToBaseline {
			ax.apply(&b, v)
		}
		for _, run := range [...]Options{o, b} {
			if _, err := run.Canonical(); err != nil {
				return SweepPlan{}, fmt.Errorf("fgnvm: sweep %s=%d: %w", ax.Name, v, err)
			}
		}
		plan.Jobs[i] = SweepJob{Index: i, Value: v, Options: o, Baseline: b}
	}
	return plan, nil
}

// NewSweepPoint derives the sweep row from a design-under-test result
// and its baseline. Every execution path — in-process, sharded,
// streamed — builds points through this one function, which is what
// makes their outputs byte-identical.
func NewSweepPoint(value int, r, base Result) SweepPoint {
	return SweepPoint{
		Value:           value,
		IPC:             r.IPC,
		Speedup:         r.SpeedupOver(base),
		RelEnergy:       r.RelativeEnergy(base),
		AvgReadLatency:  r.AvgReadLatency,
		P95ReadLatency:  r.P95ReadLatency,
		BackgroundedRds: r.BackgroundedRds,
	}
}

// Assemble combines per-job points (points[i] must be job i's result,
// regardless of where or in what order it was computed) into the final
// SweepResult.
func (pl SweepPlan) Assemble(points []SweepPoint) (SweepResult, error) {
	if len(points) != len(pl.Jobs) {
		return SweepResult{}, fmt.Errorf("fgnvm: assembling %d points into a %d-job plan",
			len(points), len(pl.Jobs))
	}
	return SweepResult{
		Axis:      pl.Axis,
		Design:    pl.Design,
		Benchmark: pl.Benchmark,
		Points:    points,
	}, nil
}

// SweepContext is Sweep with cancellation: ctx aborts in-flight
// simulations and stops dispatching further points.
func SweepContext(ctx context.Context, p SweepParams) (SweepResult, error) {
	plan, err := PlanSweep(p)
	if err != nil {
		return SweepResult{}, err
	}
	runs := make([]Options, 0, 2*len(plan.Jobs))
	for _, job := range plan.Jobs {
		runs = append(runs, job.Baseline, job.Options)
	}
	res, err := runAll(ctx, workers(p.Parallel, len(plan.Jobs)), runs, func(i int) string {
		run := "sweep"
		if i%2 == 0 {
			run = "sweep baseline"
		}
		return fmt.Sprintf("%s axis: %s at value %d", plan.Axis, run, plan.Jobs[i/2].Value)
	})
	if err != nil {
		return SweepResult{}, err
	}
	points := make([]SweepPoint, len(plan.Jobs))
	for i, job := range plan.Jobs {
		points[i] = NewSweepPoint(job.Value, res[2*i+1], res[2*i])
	}
	return plan.Assemble(points)
}
