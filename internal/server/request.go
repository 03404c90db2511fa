// Request types for the simulation service and their canonical cache
// keys. A request is normalized — names parsed, the same defaults the
// library would apply filled in — before hashing, so syntactically
// different but semantically identical requests (`{"design":"fgnvm"}`
// vs `{"design":"fgnvm","sags":8,"seed":1}`) share one cache entry and
// one in-flight run. Execution-only knobs (timeout, parallelism) never
// enter the key: they change how a result is produced, not what it is.

package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	fgnvm "repro"
	"repro/internal/trace"
)

// ModesRequest mirrors fgnvm.AccessModeSet for per-mode ablations.
type ModesRequest struct {
	PartialActivation  bool `json:"partial_activation"`
	MultiActivation    bool `json:"multi_activation"`
	BackgroundedWrites bool `json:"backgrounded_writes"`
}

// DeviceRequest mirrors fgnvm.DeviceParams (the analytic device model).
type DeviceRequest struct {
	FeatureNm  float64 `json:"feature_nm,omitempty"`
	TileRows   int     `json:"tile_rows,omitempty"`
	TileCols   int     `json:"tile_cols,omitempty"`
	MuxDegree  int     `json:"mux_degree,omitempty"`
	CellAreaF2 float64 `json:"cell_area_f2,omitempty"`
}

// WorkloadRequest mirrors fgnvm.WorkloadSpec: a GEMM/GEMV workload by
// preset name or explicit shape, plus the tiling strategy.
type WorkloadRequest struct {
	Preset     string `json:"preset,omitempty"`
	M          int    `json:"m,omitempty"`
	K          int    `json:"k,omitempty"`
	N          int    `json:"n,omitempty"`
	WordBytes  int    `json:"word_bytes,omitempty"`
	Accumulate bool   `json:"accumulate,omitempty"`
	Tiling     string `json:"tiling,omitempty"`
	TileM      int    `json:"tile_m,omitempty"`
	TileK      int    `json:"tile_k,omitempty"`
	TileN      int    `json:"tile_n,omitempty"`
	Gap        int    `json:"gap,omitempty"`
}

// toSpec converts to the library form.
func (w WorkloadRequest) toSpec() fgnvm.WorkloadSpec {
	return fgnvm.WorkloadSpec{
		Preset: w.Preset,
		M:      w.M, K: w.K, N: w.N,
		WordBytes: w.WordBytes, Accumulate: w.Accumulate,
		Tiling: w.Tiling,
		TileM:  w.TileM, TileK: w.TileK, TileN: w.TileN,
		Gap: w.Gap,
	}
}

// workloadRequestFrom converts a (canonical) spec back to wire form.
func workloadRequestFrom(s fgnvm.WorkloadSpec) *WorkloadRequest {
	return &WorkloadRequest{
		Preset: s.Preset,
		M:      s.M, K: s.K, N: s.N,
		WordBytes: s.WordBytes, Accumulate: s.Accumulate,
		Tiling: s.Tiling,
		TileM:  s.TileM, TileK: s.TileK, TileN: s.TileN,
		Gap: s.Gap,
	}
}

// RunRequest is the body of POST /v1/run: the JSON-serializable subset
// of fgnvm.Options (custom streams and raw geometry/timing overrides
// are CLI-only). Zero fields take the library defaults.
type RunRequest struct {
	Design         string           `json:"design,omitempty"`
	SAGs           int              `json:"sags,omitempty"`
	CDs            int              `json:"cds,omitempty"`
	Benchmark      string           `json:"benchmark,omitempty"`
	Mix            []string         `json:"mix,omitempty"`
	Workload       *WorkloadRequest `json:"workload,omitempty"`
	Cores          int              `json:"cores,omitempty"`
	Instructions   uint64           `json:"instructions,omitempty"`
	Seed           uint64           `json:"seed,omitempty"`
	SkipLLC        bool             `json:"skip_llc,omitempty"`
	WarmupAccesses int              `json:"warmup_accesses,omitempty"`
	IssueLanes     int              `json:"issue_lanes,omitempty"`
	Scheduler      string           `json:"scheduler,omitempty"`
	Technology     string           `json:"technology,omitempty"`
	Modes          *ModesRequest    `json:"modes,omitempty"`
	Device         *DeviceRequest   `json:"device,omitempty"`

	// StallReport attaches the telemetry subsystem: the response's
	// result carries the stall-attribution breakdown (Stalls) and the
	// per-tile occupancy matrix (TileOccupancy). Part of the cache key —
	// the instrumented result holds strictly more data.
	StallReport bool `json:"stall_report,omitempty"`

	// TimeoutMS bounds this request's wall-clock time. Execution-only:
	// excluded from the cache key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// checkBenchmarks validates profile names up front so typos become
// HTTP 400s instead of mid-run failures.
func checkBenchmarks(names ...string) error {
	for _, n := range names {
		if n == "" {
			continue
		}
		if _, ok := trace.ProfileByName(n); !ok {
			return fmt.Errorf("unknown benchmark %q", n)
		}
	}
	return nil
}

// normalize validates the request, fills in the defaults fgnvm.Run
// would apply, and builds the Options to execute. The returned request
// is the canonical form used for the cache key.
func (r RunRequest) normalize() (RunRequest, fgnvm.Options, error) {
	if r.Design == "" {
		r.Design = fgnvm.DesignBaseline.String()
	}
	design, err := fgnvm.ParseDesign(r.Design)
	if err != nil {
		return r, fgnvm.Options{}, err
	}
	r.Design = design.String()

	var sched fgnvm.Scheduler
	switch r.Scheduler {
	case "", "frfcfs":
		sched = fgnvm.SchedFRFCFS
	case "fcfs":
		sched = fgnvm.SchedFCFS
	default:
		return r, fgnvm.Options{}, fmt.Errorf("unknown scheduler %q (want frfcfs or fcfs)", r.Scheduler)
	}
	r.Scheduler = sched.String()

	var tech fgnvm.Technology
	switch r.Technology {
	case "", "pcm":
		tech = fgnvm.TechPCM
	case "rram":
		tech = fgnvm.TechRRAM
	default:
		return r, fgnvm.Options{}, fmt.Errorf("unknown technology %q (want pcm or rram)", r.Technology)
	}
	r.Technology = tech.String()

	if r.Workload != nil {
		if r.Benchmark != "" || len(r.Mix) > 0 {
			return r, fgnvm.Options{}, fmt.Errorf("set either workload or benchmark/mix, not both")
		}
		// Canonicalize: defaults made explicit, so equivalent workload
		// specs share one cache key.
		canon, err := r.Workload.toSpec().Canonical()
		if err != nil {
			return r, fgnvm.Options{}, err
		}
		r.Workload = workloadRequestFrom(canon)
	} else if r.Benchmark == "" && len(r.Mix) == 0 {
		return r, fgnvm.Options{}, fmt.Errorf("no workload: set benchmark, mix, or workload")
	}
	if err := checkBenchmarks(append([]string{r.Benchmark}, r.Mix...)...); err != nil {
		return r, fgnvm.Options{}, err
	}

	// Mirror Options.applyDefaults so equivalent requests share a key.
	if r.SAGs == 0 {
		r.SAGs = 8
	}
	if r.CDs == 0 {
		r.CDs = 2
	}
	if r.Instructions == 0 {
		r.Instructions = 200_000
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.IssueLanes == 0 {
		if design == fgnvm.DesignFgNVMMultiIssue {
			r.IssueLanes = 4
		} else {
			r.IssueLanes = 1
		}
	}
	if r.Cores == 0 {
		r.Cores = 1
	}
	// The library ignores warm-up without an LLC, fills in the default
	// for 0, and treats every negative value as "disabled".
	switch {
	case r.SkipLLC, r.WarmupAccesses == fgnvm.DefaultWarmupAccesses:
		r.WarmupAccesses = 0
	case r.WarmupAccesses < 0:
		r.WarmupAccesses = -1
	}
	if len(r.Mix) > 0 {
		// Mix overrides Benchmark/Cores in the library; canonicalize so
		// the redundant fields cannot split the cache key.
		r.Benchmark = ""
		r.Cores = len(r.Mix)
	}
	// Fields a design ignores must not split its cache key either;
	// mirror what Options.resolve forces.
	switch design {
	case fgnvm.DesignBaseline, fgnvm.DesignDRAM:
		r.SAGs, r.CDs, r.Modes = 1, 1, nil
	case fgnvm.DesignSALP:
		r.CDs, r.Modes = 1, nil
	case fgnvm.DesignManyBanks:
		r.Modes = nil
	}
	if design == fgnvm.DesignDRAM {
		// The DRAM reference system is not instrumented; the library
		// documents Telemetry as a no-op there.
		r.StallReport = false
	}

	o := fgnvm.Options{
		Design:         design,
		SAGs:           r.SAGs,
		CDs:            r.CDs,
		Benchmark:      r.Benchmark,
		Mix:            r.Mix,
		Cores:          r.Cores,
		Instructions:   r.Instructions,
		Seed:           r.Seed,
		SkipLLC:        r.SkipLLC,
		WarmupAccesses: r.WarmupAccesses,
		IssueLanes:     r.IssueLanes,
		Scheduler:      sched,
		Technology:     tech,
	}
	if r.Workload != nil {
		spec := r.Workload.toSpec()
		o.Workload = &spec
	}
	if r.Modes != nil {
		o.Modes = &fgnvm.AccessModeSet{
			PartialActivation:  r.Modes.PartialActivation,
			MultiActivation:    r.Modes.MultiActivation,
			BackgroundedWrites: r.Modes.BackgroundedWrites,
		}
	}
	if r.Device != nil {
		o.Device = &fgnvm.DeviceParams{
			FeatureNm:  r.Device.FeatureNm,
			TileRows:   r.Device.TileRows,
			TileCols:   r.Device.TileCols,
			MuxDegree:  r.Device.MuxDegree,
			CellAreaF2: r.Device.CellAreaF2,
		}
	}
	if r.StallReport {
		o.Telemetry = &fgnvm.TelemetryOptions{Attribution: true, Occupancy: true}
	}
	return r, o, nil
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

func (r Figure4Request) normalize() (Figure4Request, fgnvm.ExperimentParams, error) {
	if r.Instructions == 0 {
		r.Instructions = 100_000
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if len(r.Benchmarks) == 0 {
		r.Benchmarks = fgnvm.Benchmarks()
	}
	if err := checkBenchmarks(r.Benchmarks...); err != nil {
		return r, fgnvm.ExperimentParams{}, err
	}
	p := fgnvm.ExperimentParams{
		Instructions: r.Instructions,
		Seed:         r.Seed,
		Benchmarks:   r.Benchmarks,
		Parallel:     r.Parallel,
	}
	return r, p, nil
}

func (r Figure4Request) cacheKey() string {
	r.Parallel, r.TimeoutMS = 0, 0
	return hashKey("figure4", r)
}

// SweepRequest is the body of POST /v1/sweep, mirroring
// fgnvm.SweepParams.
type SweepRequest struct {
	Axis         string           `json:"axis,omitempty"`
	Values       []int            `json:"values,omitempty"`
	Design       string           `json:"design,omitempty"`
	Benchmark    string           `json:"benchmark,omitempty"`
	Workload     *WorkloadRequest `json:"workload,omitempty"`
	Instructions uint64           `json:"instructions,omitempty"`
	Seed         uint64           `json:"seed,omitempty"`
	SkipLLC      bool             `json:"skip_llc,omitempty"`

	// Parallel and TimeoutMS are execution-only: excluded from the key.
	Parallel  int   `json:"parallel,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (r SweepRequest) normalize() (SweepRequest, fgnvm.SweepParams, error) {
	if r.Axis == "" {
		r.Axis = "cds"
	}
	ax, err := fgnvm.SweepAxisByName(r.Axis)
	if err != nil {
		return r, fgnvm.SweepParams{}, err
	}
	if len(r.Values) == 0 {
		r.Values = ax.Default
	}
	if r.Design == "" {
		r.Design = fgnvm.DesignFgNVM.String()
	}
	design, err := fgnvm.ParseDesign(r.Design)
	if err != nil {
		return r, fgnvm.SweepParams{}, err
	}
	r.Design = design.String()
	if r.Workload != nil {
		if r.Benchmark != "" {
			return r, fgnvm.SweepParams{}, fmt.Errorf("set either workload or benchmark, not both")
		}
		canon, err := r.Workload.toSpec().Canonical()
		if err != nil {
			return r, fgnvm.SweepParams{}, err
		}
		r.Workload = workloadRequestFrom(canon)
	} else if r.Axis == "tiling" {
		return r, fgnvm.SweepParams{}, fmt.Errorf("the tiling axis requires a workload")
	} else {
		if r.Benchmark == "" {
			r.Benchmark = "mcf"
		}
		if err := checkBenchmarks(r.Benchmark); err != nil {
			return r, fgnvm.SweepParams{}, err
		}
	}
	if r.Instructions == 0 {
		r.Instructions = 100_000
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	p := fgnvm.SweepParams{
		Axis:         r.Axis,
		Values:       r.Values,
		Design:       design,
		Benchmark:    r.Benchmark,
		Instructions: r.Instructions,
		Seed:         r.Seed,
		SkipLLC:      r.SkipLLC,
		Parallel:     r.Parallel,
	}
	if r.Workload != nil {
		spec := r.Workload.toSpec()
		p.Workload = &spec
	}
	return r, p, nil
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
