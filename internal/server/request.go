// Request types for the simulation service and their canonical cache
// keys. fgnvm.Options.Canonical owns the canonical form of a run: it
// validates the options, fills in defaults, and resets every field the
// chosen design or workload ignores. A run request is parsed into
// Options, canonicalized there, and projected back to wire form; the
// cache key hashes that projection, so requests that run the same
// simulation (`{"design":"fgnvm"}` vs
// `{"design":"fgnvm","sags":8,"seed":1}`) share one cache entry and one
// in-flight run. Execution-only knobs (timeout, parallelism) never enter
// the key: they change how a result is produced, not what it is.

package server

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	fgnvm "repro"
)

// RunRequest is the body of POST /v1/run: the JSON-serializable subset
// of fgnvm.Options (custom streams and raw geometry/timing overrides
// are CLI-only). Zero fields take the library defaults.
type RunRequest struct {
	Design         string               `json:"design,omitempty"`
	SAGs           int                  `json:"sags,omitempty"`
	CDs            int                  `json:"cds,omitempty"`
	Benchmark      string               `json:"benchmark,omitempty"`
	Mix            []string             `json:"mix,omitempty"`
	Workload       *fgnvm.WorkloadSpec  `json:"workload,omitempty"`
	Cores          int                  `json:"cores,omitempty"`
	Instructions   uint64               `json:"instructions,omitempty"`
	Seed           uint64               `json:"seed,omitempty"`
	SkipLLC        bool                 `json:"skip_llc,omitempty"`
	WarmupAccesses int                  `json:"warmup_accesses,omitempty"`
	IssueLanes     int                  `json:"issue_lanes,omitempty"`
	Scheduler      string               `json:"scheduler,omitempty"`
	Technology     string               `json:"technology,omitempty"`
	Modes          *fgnvm.AccessModeSet `json:"modes,omitempty"`
	Device         *fgnvm.DeviceParams  `json:"device,omitempty"`

	// StallReport attaches the telemetry subsystem: the response's
	// result carries the stall-attribution breakdown (Stalls) and the
	// per-tile occupancy matrix (TileOccupancy). Part of the cache key —
	// the instrumented result holds strictly more data.
	StallReport bool `json:"stall_report,omitempty"`

	// TimeoutMS bounds this request's wall-clock time; it may shorten
	// the server's default timeout, never lengthen it. Execution-only:
	// excluded from the cache key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// normalize validates the request and returns its canonical wire form
// (the form the cache key hashes) with the Options to execute.
func (r RunRequest) normalize() (RunRequest, fgnvm.Options, error) {
	design, err := fgnvm.ParseDesign(cmp.Or(r.Design, fgnvm.DesignBaseline.String()))
	if err != nil {
		return r, fgnvm.Options{}, err
	}
	sched, err := fgnvm.ParseScheduler(cmp.Or(r.Scheduler, fgnvm.SchedFRFCFS.String()))
	if err != nil {
		return r, fgnvm.Options{}, err
	}
	tech, err := fgnvm.ParseTechnology(cmp.Or(r.Technology, fgnvm.TechPCM.String()))
	if err != nil {
		return r, fgnvm.Options{}, err
	}
	o := fgnvm.Options{
		Design:         design,
		SAGs:           r.SAGs,
		CDs:            r.CDs,
		Benchmark:      r.Benchmark,
		Mix:            r.Mix,
		Workload:       r.Workload,
		Cores:          r.Cores,
		Instructions:   r.Instructions,
		Seed:           r.Seed,
		SkipLLC:        r.SkipLLC,
		WarmupAccesses: r.WarmupAccesses,
		IssueLanes:     r.IssueLanes,
		Scheduler:      sched,
		Technology:     tech,
		Modes:          r.Modes,
		Device:         r.Device,
	}
	if r.StallReport {
		o.Telemetry = &fgnvm.TelemetryOptions{Attribution: true, Occupancy: true}
	}
	o, err = o.Canonical()
	if err != nil {
		return r, fgnvm.Options{}, err
	}
	return runRequestFrom(o), o, nil
}

// runRequestFrom projects canonical Options back to wire form.
func runRequestFrom(o fgnvm.Options) RunRequest {
	return RunRequest{
		Design:         o.Design.String(),
		SAGs:           o.SAGs,
		CDs:            o.CDs,
		Benchmark:      o.Benchmark,
		Mix:            o.Mix,
		Workload:       o.Workload,
		Cores:          o.Cores,
		Instructions:   o.Instructions,
		Seed:           o.Seed,
		SkipLLC:        o.SkipLLC,
		WarmupAccesses: o.WarmupAccesses,
		IssueLanes:     o.IssueLanes,
		Scheduler:      o.Scheduler.String(),
		Technology:     o.Technology.String(),
		Modes:          o.Modes,
		Device:         o.Device,
		StallReport:    o.Telemetry != nil,
	}
}

// cacheKey hashes the canonical (normalized) request, minus
// execution-only fields.
func (r RunRequest) cacheKey() string {
	r.TimeoutMS = 0
	return hashKey("run", r)
}

// Figure4Request is the body of POST /v1/figure4, mirroring
// fgnvm.ExperimentParams.
type Figure4Request struct {
	Instructions uint64   `json:"instructions,omitempty"`
	Seed         uint64   `json:"seed,omitempty"`
	Benchmarks   []string `json:"benchmarks,omitempty"`

	// Parallel and TimeoutMS are execution-only: excluded from the key.
	Parallel  int   `json:"parallel,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// normalize canonicalizes the request through
// fgnvm.ExperimentParams.Canonical and refuses a benchmark listed twice
// (the figure would simulate it twice).
func (r Figure4Request) normalize() (Figure4Request, fgnvm.ExperimentParams, error) {
	p, err := fgnvm.ExperimentParams{
		Instructions: r.Instructions,
		Seed:         r.Seed,
		Benchmarks:   r.Benchmarks,
		Parallel:     r.Parallel,
	}.Canonical()
	if err != nil {
		return r, p, err
	}
	for i, b := range p.Benchmarks {
		if slices.Contains(p.Benchmarks[:i], b) {
			return r, p, fmt.Errorf("benchmark %q listed twice", b)
		}
	}
	r.Instructions, r.Seed, r.Benchmarks = p.Instructions, p.Seed, p.Benchmarks
	return r, p, nil
}

func (r Figure4Request) cacheKey() string {
	r.Parallel, r.TimeoutMS = 0, 0
	return hashKey("figure4", r)
}

// maxSweepValues bounds one sweep's points. Each point is two
// simulations (the design and its baseline), and without a bound a
// 1 MiB body could ask for half a million of them. No built-in axis
// default has more than 6 values.
const maxSweepValues = 64

// SweepRequest is the body of POST /v1/sweep, mirroring
// fgnvm.SweepParams.
type SweepRequest struct {
	Axis         string              `json:"axis,omitempty"`
	Values       []int               `json:"values,omitempty"`
	Design       string              `json:"design,omitempty"`
	Benchmark    string              `json:"benchmark,omitempty"`
	Workload     *fgnvm.WorkloadSpec `json:"workload,omitempty"`
	Instructions uint64              `json:"instructions,omitempty"`
	Seed         uint64              `json:"seed,omitempty"`
	SkipLLC      bool                `json:"skip_llc,omitempty"`

	// Parallel and TimeoutMS are execution-only: excluded from the key.
	Parallel  int   `json:"parallel,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// normalize applies the wire defaults (axis cds, design fgnvm) and the
// checks on outside input, then plans the sweep: fgnvm.PlanSweep owns
// every other default and validation, and the canonical request is the
// wire projection of the parameters it planned.
func (r SweepRequest) normalize() (SweepRequest, fgnvm.SweepPlan, error) {
	design, err := fgnvm.ParseDesign(cmp.Or(r.Design, fgnvm.DesignFgNVM.String()))
	if err != nil {
		return r, fgnvm.SweepPlan{}, err
	}
	if len(r.Values) > maxSweepValues {
		return r, fgnvm.SweepPlan{}, fmt.Errorf("%d sweep values, want at most %d", len(r.Values), maxSweepValues)
	}
	if r.Workload != nil && r.Benchmark != "" {
		return r, fgnvm.SweepPlan{}, fmt.Errorf("set either workload or benchmark, not both")
	}
	plan, err := fgnvm.PlanSweep(fgnvm.SweepParams{
		Axis:         cmp.Or(r.Axis, "cds"),
		Values:       r.Values,
		Design:       design,
		Benchmark:    r.Benchmark,
		Instructions: r.Instructions,
		Seed:         r.Seed,
		SkipLLC:      r.SkipLLC,
		Workload:     r.Workload,
	})
	if err != nil {
		return r, plan, err
	}
	p := plan.Params
	return SweepRequest{
		Axis:         p.Axis,
		Values:       p.Values,
		Design:       p.Design.String(),
		Benchmark:    p.Benchmark,
		Workload:     p.Workload,
		Instructions: p.Instructions,
		Seed:         p.Seed,
		SkipLLC:      p.SkipLLC,
		Parallel:     r.Parallel,
		TimeoutMS:    r.TimeoutMS,
	}, plan, nil
}

func (r SweepRequest) cacheKey() string {
	r.Parallel, r.TimeoutMS = 0, 0
	return hashKey("sweep", r)
}

// pointKey is the cache/store key of ONE point of a sweep: the
// canonical request narrowed to a single axis value. Derived the same
// way on every replica (normalize is idempotent on canonical
// requests), so a coordinator and the peer it shards to address the
// same stored result without coordination — content addressing is the
// only protocol.
func (r SweepRequest) pointKey(value int) string {
	r.Values = []int{value}
	r.Parallel, r.TimeoutMS = 0, 0
	return hashKey("sweeppoint", r)
}

// hashKey derives the cache/coalescing key: endpoint name plus the
// SHA-256 of the canonical request's JSON encoding (struct field order
// is fixed, so the encoding is deterministic).
func hashKey(kind string, req any) string {
	b, err := json.Marshal(req)
	if err != nil {
		// Requests are plain data; Marshal cannot fail on them. Keep a
		// non-colliding fallback rather than panicking in a server.
		return kind + ":unhashable:" + fmt.Sprintf("%+v", req)
	}
	sum := sha256.Sum256(b)
	return kind + ":" + hex.EncodeToString(sum[:])
}
