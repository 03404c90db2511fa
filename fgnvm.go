// Package fgnvm is the public API of the FgNVM reproduction: a
// simulator for fine-granularity tile-level parallelism in non-volatile
// memory with two-dimensional bank subdivision (Poremba, Zhang, Xie —
// DAC 2016).
//
// The package assembles the full evaluation stack — synthetic SPEC-like
// workload, last-level cache, ROB-windowed core, FR-FCFS memory
// controller, and the FgNVM bank models — and runs one simulation per
// call:
//
//	res, err := fgnvm.Run(fgnvm.Options{
//	    Design:    fgnvm.DesignFgNVM,
//	    SAGs:      8,
//	    CDs:       2,
//	    Benchmark: "mcf",
//	})
//	fmt.Println(res.IPC, res.Energy.TotalPJ)
//
// Design points reproduce the paper's comparison systems: the baseline
// NVM prototype, FgNVM (with all three access modes), FgNVM with the
// augmented multi-issue FR-FCFS controller, the idealized many-banks
// memory, a SALP-style one-dimensional subdivision, and a DDR3-class
// DRAM reference. Options further select multi-programmed core counts,
// PCM or RRAM cells, an analytic device model, and per-mode ablations;
// Figure4, Figure5, Table1 and Summary regenerate the paper's
// evaluation artifacts directly.
package fgnvm

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/addr"
	"repro/internal/bank"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/device"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/gemm"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/timing"
	"repro/internal/trace"
)

// Design selects one of the evaluated memory architectures.
type Design int

const (
	// DesignBaseline is the prototype NVM bank [13]: one global row
	// buffer per bank, full-row sensing, serialized operations.
	DesignBaseline Design = iota
	// DesignFgNVM is the paper's proposal: SAGs×CDs tile grid with
	// Partial-Activation, Multi-Activation and Backgrounded Writes.
	DesignFgNVM
	// DesignFgNVMMultiIssue additionally lets the controller issue
	// multiple commands per cycle and return data on a wider bus
	// (Figure 4's "FGNVM+Multi-Issue" bars).
	DesignFgNVMMultiIssue
	// DesignManyBanks is Figure 4's idealized comparison: SAGs×CDs×banks
	// independent banks, each sized like one (SAG, CD) pair.
	DesignManyBanks
	// DesignSALP is a one-dimensional subdivision (SAGs subarrays, one
	// CD): the DRAM SALP analogue used in the ablation studies.
	DesignSALP
	// DesignDRAM is a conventional DDR3-style DRAM memory — destructive
	// reads (tRAS restore), precharge (tRP), periodic refresh — the
	// technology whose constraints Section 2 contrasts against NVM.
	// Performance-only: DRAM energy is not modeled.
	DesignDRAM
)

// designNames, schedulerNames and technologyNames name each option
// enum's values, indexed by value.
var (
	designNames     = []string{"baseline", "fgnvm", "fgnvm-multiissue", "manybanks", "salp", "dram"}
	schedulerNames  = []string{"frfcfs", "fcfs"}
	technologyNames = []string{"pcm", "rram"}
)

// enumName renders value v of the enum kind named by names.
func enumName(names []string, kind string, v int) string {
	if v >= 0 && v < len(names) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", kind, v)
}

// parseEnum maps a name from names back to its value.
func parseEnum(names []string, kind, name string) (int, error) {
	if v := slices.Index(names, name); v >= 0 {
		return v, nil
	}
	return 0, fmt.Errorf("fgnvm: unknown %s %q (want one of %s)", kind, name, strings.Join(names, ", "))
}

func (d Design) String() string { return enumName(designNames, "Design", int(d)) }

// ParseDesign maps a name (as printed by String) back to a Design.
func ParseDesign(name string) (Design, error) {
	v, err := parseEnum(designNames, "design", name)
	return Design(v), err
}

// Designs returns all designs in a stable order.
func Designs() []Design {
	return []Design{DesignBaseline, DesignFgNVM, DesignFgNVMMultiIssue, DesignManyBanks, DesignSALP, DesignDRAM}
}

// DefaultWarmupAccesses is the LLC warm-up length used when
// Options.WarmupAccesses is zero: twice the line count of the 2 MiB
// LLC (64-byte lines).
const DefaultWarmupAccesses = 2 * (2 << 20) / 64

// Options configures one simulation. The zero value plus a Benchmark
// name runs the paper's setup: baseline design, Table 2 geometry and
// timings, 200 k instructions.
type Options struct {
	Design Design

	// SAGs and CDs set the FgNVM/SALP subdivision. Default 8×2, the
	// configuration of Figure 4. Ignored by DesignBaseline and
	// DesignDRAM; DesignSALP ignores CDs.
	SAGs, CDs int

	// Benchmark names a built-in SPEC2006-like profile (see
	// trace.Profiles). Exactly one workload source must be set:
	// Benchmark/Mix, Stream, Streams, or Workload.
	Benchmark string
	// Stream supplies a custom access stream instead of a benchmark
	// (single core).
	Stream trace.Stream
	// Streams supplies one custom access stream per core — the
	// multi-programmed form of Stream. Cores, if set, must match
	// len(Streams). Streams share the memory system as-is: callers
	// wanting disjoint regions wrap them in trace.NewOffset.
	Streams []trace.Stream
	// Workload lowers a GEMM/GEMV shape (a named LLM-layer preset or an
	// explicit M×K×N) into a tile-aware access stream via internal/gemm;
	// Cores > 1 partitions the one GEMM across the cores.
	Workload *WorkloadSpec

	// Cores runs a multi-programmed workload: N copies of Benchmark
	// (differently seeded, disjoint address regions) on private cores
	// and LLCs sharing the one memory system. Default 1. The paper
	// evaluates single-core; this is the natural CMP extension, where
	// memory contention amplifies the value of tile-level parallelism.
	Cores int
	// Mix runs a heterogeneous multi-programmed workload: one core per
	// named benchmark. Overrides Benchmark/Cores when non-empty.
	Mix []string

	// Instructions is the retire budget (default 200 000 — the
	// SimPoint-slice stand-in).
	Instructions uint64
	// Seed perturbs the workload generator (default 1).
	Seed uint64

	// SkipLLC removes the 2 MiB 16-way LLC that otherwise sits between
	// the stream and the memory system (dirty evictions become
	// writebacks), so every access goes to memory. WarmupAccesses is
	// ignored when set.
	SkipLLC bool

	// WarmupAccesses pre-fills the LLC by running this many accesses of
	// the workload through it before timing starts — the stand-in for
	// the paper's SimPoint checkpoint restore, without which a short
	// run sees only cold misses and no writeback traffic. Default (0):
	// DefaultWarmupAccesses. Set negative to disable. At most 1<<24.
	//
	// For Benchmark and Mix workloads the warmed state is a checkpoint:
	// each core's warmed LLC and generator are kept in a process-wide
	// memo, keyed by everything the warm-up reads (profile, seed, core,
	// line size, this length), and later runs with the same key, such
	// as the other designs of a benchmark, continue from a copy. Results
	// are byte-identical either way. The memo holds at most 16 entries
	// of about 0.8 MB each. Custom streams and GEMM workloads warm in
	// place on every run.
	WarmupAccesses int

	// IssueLanes overrides the controller's command/data lanes.
	// Default: 1, or 4 for DesignFgNVMMultiIssue; at most 64.
	IssueLanes int

	// Scheduler selects the controller policy (default SchedFRFCFS).
	Scheduler Scheduler

	// Geometry overrides the Table 2 memory organization (advanced).
	// Its SAGs and CDs are replaced by Options.SAGs and CDs (after their
	// defaults and the design's resets), which always set the
	// subdivision.
	Geometry *addr.Geometry
	// Timings overrides the Table 2 PCM timing set (advanced). Ignored
	// by DesignDRAM, like Device.
	Timings *timing.Timings

	// Device, when set, derives timings and per-bit energies from the
	// NVSim-style analytic array model instead of the Table 2 numbers:
	// specify the process node and tile geometry, and the run uses the
	// latencies/energies that array would have. Mutually exclusive
	// with Timings.
	Device *DeviceParams

	// Core overrides the CPU model parameters (advanced).
	Core CoreParams

	// Technology selects the NVM cell technology: PCM (Table 2, the
	// default) or RRAM (faster switching, lower write energy). Ignored
	// when Device is set. With Timings set, Timings replaces its
	// latencies but Technology still selects the write energy.
	Technology Technology

	// Modes, when non-nil, overrides the access-mode set implied by
	// Design — the knob for per-mode ablations ("what does FgNVM gain
	// from Backgrounded Writes alone?"). Applies to DesignFgNVM and
	// DesignFgNVMMultiIssue only.
	Modes *AccessModeSet

	// MaxCycles aborts a run that exceeds this many memory cycles
	// (default 2 billion — a deadlock backstop, not a tuning knob).
	MaxCycles sim.Tick

	// Telemetry, when non-nil, attaches the observability subsystem:
	// stall attribution (Result.Stalls), the per-tile occupancy matrix
	// (Result.TileOccupancy), and Perfetto trace export. Nil keeps all
	// simulator hooks on their zero-allocation disabled path. Ignored
	// by DesignDRAM (the reference system is not instrumented).
	Telemetry *TelemetryOptions

	// DisableFastForward forces the run loop to execute every
	// controller cycle even when all cores are provably memory-blocked
	// and the memory system quiescent. The fast-forward is exact — runs
	// with and without it produce byte-identical Results (enforced by
	// the differential test suite) — so this is a debug/verification
	// knob, not a fidelity trade-off.
	DisableFastForward bool
}

// AccessModeSet selects which of the paper's three access modes are
// enabled, for ablation runs (see Options.Modes).
type AccessModeSet struct {
	PartialActivation  bool `json:"partial_activation"`
	MultiActivation    bool `json:"multi_activation"`
	BackgroundedWrites bool `json:"backgrounded_writes"`
}

// Technology selects the resistive memory cell type. Both satisfy the
// paper's requirement of a large on/off resistance ratio (Section 2).
type Technology int

const (
	// TechPCM is the Table 2 phase-change memory prototype.
	TechPCM Technology = iota
	// TechRRAM is a representative HfOx resistive RAM: ~3× faster
	// writes (50 ns pulses), faster reads, 4 pJ/bit writes.
	TechRRAM
)

func (t Technology) String() string { return enumName(technologyNames, "Technology", int(t)) }

// ParseTechnology maps a name (as printed by String) back to a
// Technology.
func ParseTechnology(name string) (Technology, error) {
	v, err := parseEnum(technologyNames, "technology", name)
	return Technology(v), err
}

// rramWritePJPerBit is the RRAM programming energy (HfOx set/reset is
// roughly 4× cheaper than PCM's melt-quench).
const rramWritePJPerBit = 4.0

// DeviceParams describes a PCM array for the analytic device model
// (see internal/device): timings and per-bit energies are derived from
// the geometry instead of taken from Table 2. Zero fields take the
// 20 nm prototype's values (1024×1024 tiles, 32:1 mux, 5 F² cells).
type DeviceParams struct {
	FeatureNm  float64 `json:"feature_nm,omitempty"`
	TileRows   int     `json:"tile_rows,omitempty"`
	TileCols   int     `json:"tile_cols,omitempty"`
	MuxDegree  int     `json:"mux_degree,omitempty"`
	CellAreaF2 float64 `json:"cell_area_f2,omitempty"`
}

func (p DeviceParams) applyDefaults() DeviceParams {
	def := device.Prototype()
	if p.FeatureNm == 0 {
		p.FeatureNm = def.FeatureNm
	}
	if p.TileRows == 0 {
		p.TileRows = def.TileRows
	}
	if p.TileCols == 0 {
		p.TileCols = def.TileCols
	}
	if p.MuxDegree == 0 {
		p.MuxDegree = def.MuxDegree
	}
	if p.CellAreaF2 == 0 {
		p.CellAreaF2 = def.CellAreaF2
	}
	return p
}

// Scheduler selects the memory-controller command scheduling policy.
type Scheduler int

const (
	// SchedFRFCFS is first-ready first-come-first-serve [20], the
	// paper's scheduler.
	SchedFRFCFS Scheduler = iota
	// SchedFCFS services requests strictly in arrival order.
	SchedFCFS
)

func (s Scheduler) String() string { return enumName(schedulerNames, "Scheduler", int(s)) }

// ParseScheduler maps a name (as printed by String) back to a
// Scheduler.
func ParseScheduler(name string) (Scheduler, error) {
	v, err := parseEnum(schedulerNames, "scheduler", name)
	return Scheduler(v), err
}

// schedulerKinds maps each Scheduler to its controller policy.
var schedulerKinds = [...]controller.SchedulerKind{
	SchedFRFCFS: controller.FRFCFS,
	SchedFCFS:   controller.FCFS,
}

// CoreParams sizes the CPU model. Zero fields take Nehalem-like
// defaults: 128-entry ROB, 16 MSHRs, 4-wide retire, 8 CPU cycles per
// memory-controller cycle (3.2 GHz / 400 MHz).
type CoreParams struct {
	ROB            int
	MSHRs          int
	RetireWidth    int
	CPUPerMemCycle int
}

// EnergyBreakdown reports simulated energy in picojoules.
type EnergyBreakdown struct {
	ReadPJ       float64
	WritePJ      float64
	BackgroundPJ float64
	TotalPJ      float64
	BitsSensed   uint64
	BitsWritten  uint64
}

// Result is the outcome of one simulation run.
type Result struct {
	Design    Design
	Benchmark string
	SAGs, CDs int
	Cores     int

	Instructions uint64   // total retired across all cores
	Cycles       sim.Tick // memory-controller cycles elapsed
	// IPC is the system throughput: the sum of per-core IPCs, each
	// measured at its core's own completion time. For one core this is
	// simply that core's IPC.
	IPC float64
	// MinCoreIPC and MaxCoreIPC bound the per-core fairness spread in
	// multi-programmed runs.
	MinCoreIPC float64
	MaxCoreIPC float64

	Reads, Writes   uint64 // memory requests completed
	Activations     uint64
	SegmentHits     uint64
	BackgroundedRds uint64  // reads completed under an in-flight write
	AvgReadLatency  float64 // controller cycles
	AvgWriteLatency float64
	// Read-latency percentiles in controller cycles (log-bucket upper
	// bounds; see stats.Histogram).
	P50ReadLatency uint64
	P95ReadLatency uint64
	P99ReadLatency uint64
	LLCMissRate    float64
	StallCycles    uint64

	Energy EnergyBreakdown

	// Stalls breaks queued waiting down by blocking cause. Populated
	// only when Options.Telemetry.Attribution was set.
	Stalls *StallBreakdown `json:",omitempty"`
	// TileOccupancy is the [SAG][CD] busy-cycle matrix (summed over
	// banks). Populated only when Options.Telemetry.Occupancy was set.
	TileOccupancy [][]uint64 `json:",omitempty"`
	// TraceEvents is the number of events exported to
	// Options.Telemetry.TraceWriter (0 when tracing was off).
	TraceEvents int `json:",omitempty"`
}

// SpeedupOver returns this result's IPC relative to a baseline result.
// A baseline with zero IPC has no meaningful ratio and yields NaN, so a
// broken baseline run cannot masquerade as "no speedup".
func (r Result) SpeedupOver(base Result) float64 {
	if base.IPC == 0 {
		return math.NaN()
	}
	return r.IPC / base.IPC
}

// RelativeEnergy returns this result's total energy relative to a
// baseline result. A baseline with zero total energy (e.g. the
// performance-only DRAM design) has no meaningful ratio and yields NaN.
func (r Result) RelativeEnergy(base Result) float64 {
	if base.Energy.TotalPJ == 0 {
		return math.NaN()
	}
	return r.Energy.TotalPJ / base.Energy.TotalPJ
}

// maxCores bounds the private cores of one run: multi-programmed cores
// get disjoint 512 MiB regions, and four fill the 2 GiB capacity.
const maxCores = 4

// maxIssueLanes bounds Options.IssueLanes. The controller walks every
// lane on every cycle, so an unbounded lane count turns a short run into
// an arbitrarily long one; the paper's Multi-Issue controller uses 4.
const maxIssueLanes = 64

// maxCoreParam bounds every field of Options.Core. The core allocates
// its ROB up front, so an unbounded ROB lets one request (a sweep's
// "rob" axis value) ask for gigabytes; the sweep axes' defaults stay at
// 512 and below.
const maxCoreParam = 1 << 16

// maxWarmupAccesses bounds Options.WarmupAccesses. The warm-up runs
// before the first simulated cycle, so MaxCycles does not limit it,
// and a server with no deadline would spend a worker on it for as long
// as the request asks. The bound is 256 times the default, about 3 s
// per core on a 2-vCPU host.
const maxWarmupAccesses = 1 << 24

// maxBankState bounds the bank state of one run, in the units bankState
// counts. The bank models allocate every SAG, CD and tile up front, so
// without a bound a single small request could ask for gigabytes. At
// this budget the largest accepted run of either extreme shape — one
// wide grid, or many 1×1 banks — allocates under 64 MB at 1,000
// instructions.
const maxBankState = 1 << 22

// bankFixedState and channelFixedState are the per-bank and
// per-channel state that does not scale with the grid (the bank model
// itself; a channel's queues, calendar and controller slots), in
// bankState's units.
const (
	bankFixedState    = 64
	channelFixedState = 96
)

// bankState counts the bank state a run on g allocates, in units of
// about 16 bytes. Each bank holds one unit per tile (its latch and sense
// timer), five per SAG (two timers, the row latch and two slice
// headers, 72 bytes), three per CD and bankFixedState; each channel adds
// channelFixedState, and the run two units per tile of one bank for the
// occupancy matrix telemetry may keep. It saturates above maxBankState,
// so the product of large dimensions cannot overflow.
func bankState(g addr.Geometry) uint64 {
	mul := func(a uint64, b int) uint64 {
		if a > maxBankState/uint64(b) {
			return maxBankState + 1
		}
		return a * uint64(b)
	}
	tiles := mul(uint64(g.SAGs), g.CDs)
	bank := tiles + mul(5, g.SAGs) + mul(3, g.CDs) + bankFixedState
	channel := mul(mul(bank, g.Ranks), g.Banks) + channelFixedState
	return mul(channel, g.Channels) + 2*tiles
}

// Canonical validates o and returns the canonical form of the run it
// describes: defaults filled in, and every field the chosen design or
// workload ignores reset to one fixed value, so two Options that run the
// same simulation canonicalize equal (RunContext runs this form, and the
// HTTP server hashes it as its cache key). Canonical is idempotent.
// WarmupAccesses stays 0 for the default length (and under SkipLLC, which
// ignores it) and folds every negative value to -1. The geometry the
// design resolves to must be valid, and its bank state (bankState) at
// most maxBankState; a Device must derive, and a multi-core Workload
// must split into a tile range per core.
func (o Options) Canonical() (Options, error) {
	// Validate everything first, so a field the design ignores is still
	// rejected when it is invalid.
	switch {
	case o.Design < 0 || int(o.Design) >= len(designNames):
		return Options{}, fmt.Errorf("fgnvm: unknown design %d", int(o.Design))
	case o.Scheduler < 0 || int(o.Scheduler) >= len(schedulerNames):
		return Options{}, fmt.Errorf("fgnvm: unknown scheduler %d", int(o.Scheduler))
	case o.Technology < 0 || int(o.Technology) >= len(technologyNames):
		return Options{}, fmt.Errorf("fgnvm: unknown technology %d", int(o.Technology))
	case o.Timings != nil && o.Device != nil:
		return Options{}, fmt.Errorf("fgnvm: set either Timings or Device, not both")
	case o.Cores < 0:
		return Options{}, fmt.Errorf("fgnvm: Cores = %d, must not be negative", o.Cores)
	case o.IssueLanes < 0 || o.IssueLanes > maxIssueLanes:
		return Options{}, fmt.Errorf("fgnvm: IssueLanes = %d, want 0 (design default) to %d", o.IssueLanes, maxIssueLanes)
	case o.WarmupAccesses > maxWarmupAccesses:
		return Options{}, fmt.Errorf("fgnvm: WarmupAccesses = %d, want at most %d", o.WarmupAccesses, maxWarmupAccesses)
	}
	for _, v := range [...]int{o.Core.ROB, o.Core.MSHRs, o.Core.RetireWidth, o.Core.CPUPerMemCycle} {
		if v < 0 || v > maxCoreParam {
			return Options{}, fmt.Errorf("fgnvm: Core = %+v, want every field 0 (the default) to %d", o.Core, maxCoreParam)
		}
	}
	sources := 0
	for _, set := range [...]bool{o.Benchmark != "" || len(o.Mix) > 0, o.Stream != nil, len(o.Streams) > 0, o.Workload != nil} {
		if set {
			sources++
		}
	}
	if sources > 1 {
		return Options{}, fmt.Errorf("fgnvm: set exactly one workload source: Benchmark/Mix, Stream, Streams, or Workload")
	}
	if o.Cores == 0 {
		o.Cores = 1
	}
	if o.SAGs == 0 {
		o.SAGs = 8
	}
	if o.CDs == 0 {
		o.CDs = 2
	}
	if o.Instructions == 0 {
		o.Instructions = 200_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	switch {
	case o.Stream != nil:
		if o.Cores > 1 {
			return Options{}, fmt.Errorf("fgnvm: custom Stream supports a single core (use Streams for multi-programmed custom workloads)")
		}
	case len(o.Streams) > 0:
		if len(o.Streams) > maxCores {
			return Options{}, fmt.Errorf("fgnvm: at most %d cores, got %d", maxCores, len(o.Streams))
		}
		if o.Cores > 1 && o.Cores != len(o.Streams) {
			return Options{}, fmt.Errorf("fgnvm: Cores = %d does not match len(Streams) = %d", o.Cores, len(o.Streams))
		}
		for i, s := range o.Streams {
			if s == nil {
				return Options{}, fmt.Errorf("fgnvm: Streams[%d] is nil", i)
			}
		}
		o.Cores = len(o.Streams)
	case o.Workload != nil:
		if o.Cores > maxCores {
			return Options{}, fmt.Errorf("fgnvm: at most %d cores, got %d", maxCores, o.Cores)
		}
		w, err := o.Workload.Canonical()
		if err != nil {
			return Options{}, err
		}
		o.Workload = &w
	case o.Benchmark != "" || len(o.Mix) > 0:
		if o.Benchmark != "" {
			if err := checkBenchmark(o.Benchmark); err != nil {
				return Options{}, err
			}
		}
		for _, name := range o.Mix {
			if err := checkBenchmark(name); err != nil {
				return Options{}, err
			}
		}
		if len(o.Mix) > 0 {
			o.Benchmark, o.Cores = "", len(o.Mix)
		}
		if o.Cores > maxCores {
			return Options{}, fmt.Errorf("fgnvm: at most %d cores, got %d", maxCores, o.Cores)
		}
	default:
		return Options{}, fmt.Errorf("fgnvm: no workload: set Benchmark, Stream, Streams, or Workload")
	}
	if o.Benchmark == "" && len(o.Mix) == 0 {
		o.Seed = 0 // only the benchmark generators are seeded
	}
	if o.IssueLanes == 0 {
		o.IssueLanes = 1
		if o.Design == DesignFgNVMMultiIssue {
			o.IssueLanes = 4
		}
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 2_000_000_000
	}
	switch {
	case o.SkipLLC, o.WarmupAccesses == DefaultWarmupAccesses:
		o.WarmupAccesses = 0
	case o.WarmupAccesses < 0:
		o.WarmupAccesses = -1
	}
	if o.Device != nil {
		if _, _, err := o.Device.derive(); err != nil {
			return Options{}, err
		}
		o.Technology = TechPCM // the device model sets timings and energies
	}
	switch o.Design {
	case DesignBaseline:
		o.SAGs, o.CDs, o.Modes = 1, 1, nil
	case DesignSALP:
		o.CDs, o.Modes = 1, nil
	case DesignManyBanks:
		o.Modes = nil
	case DesignDRAM:
		// The DDR reference system has no NVM controller, cells or
		// telemetry hooks, and runs its own DDR timings.
		o.SAGs, o.CDs, o.Modes = 1, 1, nil
		o.Scheduler, o.IssueLanes, o.Technology, o.Telemetry = SchedFRFCFS, 1, TechPCM, nil
		o.Timings, o.Device = nil, nil
	}
	g, _, err := o.resolve()
	if err != nil {
		return Options{}, err
	}
	if n := bankState(g); n > maxBankState {
		return Options{}, fmt.Errorf("fgnvm: %d channels × %d ranks × %d banks of %d×%d tiles exceed the bank-state budget (%d units, at most %d)",
			g.Channels, g.Ranks, g.Banks, g.SAGs, g.CDs, n, maxBankState)
	}
	if o.Workload != nil && o.Cores > 1 {
		// The lowering refuses more cores than the shape has row tiles
		// and column tiles.
		spec, _ := o.Workload.resolve() // canonical above, so it resolves
		if _, err := gemm.Partition(spec, g, addr.RowBankRankChanCol, o.Cores); err != nil {
			return Options{}, err
		}
	}
	return o, nil
}

// derive runs the device model on p, defaults filled in, and returns
// its derivation with the timings it implies.
func (p DeviceParams) derive() (device.Derived, timing.Timings, error) {
	dp := p.applyDefaults()
	d, err := device.Derive(device.Params{
		FeatureNm: dp.FeatureNm, TileRows: dp.TileRows, TileCols: dp.TileCols,
		MuxDegree: dp.MuxDegree, CellAreaF2: dp.CellAreaF2,
	})
	if err != nil {
		return d, timing.Timings{}, err
	}
	tim, err := timing.New(d.Timings, timing.DefaultClockMHz)
	return d, tim, err
}

// designModes is the access-mode set each design implies; Options.Modes
// overrides it on the two FgNVM designs.
var designModes = [...]core.AccessModes{
	DesignBaseline:        {},
	DesignFgNVM:           core.AllModes(),
	DesignFgNVMMultiIssue: core.AllModes(),
	DesignManyBanks:       {},
	// DRAM-SALP analogue: 1-D subdivision whose subarrays own their
	// sense amplifiers, so concurrent activations need only distinct
	// SAGs. Senses still fetch the full row (no Partial-Activation).
	DesignSALP: {MultiActivation: true, BackgroundedWrites: true, LocalSenseAmps: true},
	DesignDRAM: {},
}

// resolve derives the simulated geometry and access modes of canonical
// options.
func (o *Options) resolve() (addr.Geometry, core.AccessModes, error) {
	g := addr.PaperGeometry()
	if o.Geometry != nil {
		g = *o.Geometry
	}
	g.SAGs, g.CDs = o.SAGs, o.CDs
	if err := g.Validate(); err != nil {
		return addr.Geometry{}, core.AccessModes{}, err
	}
	modes := designModes[o.Design]
	if o.Modes != nil {
		modes = core.AccessModes{
			PartialActivation:  o.Modes.PartialActivation,
			MultiActivation:    o.Modes.MultiActivation,
			BackgroundedWrites: o.Modes.BackgroundedWrites,
		}
	}
	if o.Design == DesignManyBanks {
		mg, err := bank.ManyBanksGeometry(g)
		return mg, modes, err
	}
	return g, modes, nil
}

// Run executes one simulation to completion and returns its Result.
func Run(o Options) (Result, error) {
	return RunContext(context.Background(), o)
}

// ctxCheckMask throttles the cancellation polls: ctx is consulted once
// every 4096 controller cycles (~10 µs simulated) in the main loop and
// once every 4096 accesses in the LLC warm-up, which keeps the check
// off the profile while bounding the response to a cancellation at a
// few microseconds of wall time.
const ctxCheckMask = 1<<12 - 1

// RunContext executes one simulation to completion, honouring ctx:
// cancellation or deadline expiry stops the simulation loop promptly and
// returns ctx's error. A run abandoned by its caller therefore stops
// burning CPU instead of running to its retire budget.
func RunContext(ctx context.Context, o Options) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	o, err := o.Canonical()
	if err != nil {
		return Result{}, err
	}
	geom, modes, err := o.resolve()
	if err != nil {
		return Result{}, err
	}

	tim := timing.Paper()
	var derived *device.Derived
	switch {
	case o.Timings != nil:
		tim = *o.Timings
	case o.Technology == TechRRAM:
		var err error
		tim, err = timing.New(timing.RRAM(), timing.DefaultClockMHz)
		if err != nil {
			return Result{}, err
		}
	case o.Device != nil:
		d, dt, err := o.Device.derive()
		if err != nil {
			return Result{}, err
		}
		derived, tim = &d, dt
	}

	// Workload: one access stream per core. Multi-programmed cores get
	// differently seeded copies in disjoint 512 MiB address regions.
	// Benchmark cores are described by their warm-up keys instead, and
	// their streams are built with their LLCs below.
	warm := o.WarmupAccesses
	if warm == 0 {
		warm = DefaultWarmupAccesses
	}
	var streams []trace.Stream
	var keys []warmKey
	benchName := o.Benchmark
	switch {
	case o.Stream != nil:
		streams = []trace.Stream{o.Stream}
		benchName = "custom"
	case len(o.Streams) > 0:
		streams = o.Streams
		benchName = "custom"
		if len(o.Streams) > 1 {
			benchName = fmt.Sprintf("%dxcustom", len(o.Streams))
		}
	case o.Workload != nil:
		spec, err := o.Workload.resolve()
		if err != nil {
			return Result{}, err
		}
		// Lower against the resolved geometry, so tile placement targets
		// the subdivisions (or flattened banks) the design actually has.
		streams, err = gemm.Partition(spec, geom, addr.RowBankRankChanCol, o.Cores)
		if err != nil {
			return Result{}, err
		}
		benchName = spec.String()
		if o.Cores > 1 {
			benchName = fmt.Sprintf("%dx%s", o.Cores, benchName)
		}
	default:
		names := o.Mix
		if len(names) == 0 {
			for i := 0; i < o.Cores; i++ {
				names = append(names, o.Benchmark)
			}
		}
		for i, name := range names {
			p, _ := trace.ProfileByName(name)
			keys = append(keys, warmKey{
				profile: p, seed: o.Seed + uint64(i)*0x9e3779b9,
				base:      uint64(i) << 29, // 512 MiB apart
				lineBytes: geom.LineBytes, accesses: warm,
			})
		}
		streams = make([]trace.Stream, len(keys))
		if len(o.Mix) > 0 {
			benchName = strings.Join(o.Mix, "+")
		} else if len(names) > 1 {
			benchName = fmt.Sprintf("%dx%s", len(names), o.Benchmark)
		}
	}

	// Energy model: background power covers every bank's row buffer and
	// periphery. The many-banks design has more, smaller row buffers
	// totalling the same bits, so background power is design-invariant.
	ecfg := energy.Config{
		RowBufferBits: geom.RowBytes() * 8,
		Banks:         geom.Channels * geom.Ranks * geom.Banks,
	}
	if derived != nil {
		ecfg.ReadPJPerBit = derived.ReadPJPerBit
		ecfg.WritePJPerBit = derived.WritePJPerBit
	} else if o.Technology == TechRRAM {
		ecfg.WritePJPerBit = rramWritePJPerBit
	}
	emod := energy.New(ecfg)

	// The memory side: the NVM controller for every design except
	// DesignDRAM, which runs the DDR reference system instead.
	eng := sim.NewEngine()
	var memsys memDevice
	var ctrl *controller.Controller
	var dsys *dram.System
	var telAtt *telemetry.Attribution
	var telOcc *telemetry.Occupancy
	var telTrc *telemetry.Trace
	if o.Design == DesignDRAM {
		dsys, err = dram.New(dram.Config{
			Geom: geom, Tim: dram.Defaults(),
			Interleave: addr.RowBankRankChanCol,
		}, eng)
		if err != nil {
			return Result{}, err
		}
		memsys = dsys
	} else {
		// Telemetry consumers attach before the controller is built so
		// every bank is born with its sink. Command and request events
		// fan out to Occupancy, the trace and the user Sink; stalls go
		// to Attribution alone, and are not classified without it.
		// DesignDRAM skips this branch entirely, so Telemetry is a
		// documented no-op there.
		var events telemetry.Sink
		if t := o.Telemetry; t != nil {
			fan := make(telemetry.Fanout, 0, 3)
			if t.Attribution {
				telAtt = telemetry.NewAttribution(geom)
			}
			if t.Occupancy {
				telOcc = telemetry.NewOccupancy(geom)
				fan = append(fan, telOcc)
			}
			if t.TraceWriter != nil {
				telTrc = telemetry.NewTrace(geom, o.IssueLanes)
				fan = append(fan, telTrc)
				eng.SetHook(telTrc.EngineSample)
			}
			if t.Sink != nil {
				fan = append(fan, t.Sink)
			}
			events = fan.Compact()
		}
		ccfg := controller.Config{
			Geom: geom, Tim: tim, Modes: modes,
			Scheduler: schedulerKinds[o.Scheduler], IssueLanes: o.IssueLanes,
			Interleave:  addr.RowBankRankChanCol,
			Energy:      emod,
			Telemetry:   events,
			Attribution: telAtt,
		}
		ctrl, err = controller.New(ccfg, eng)
		if err != nil {
			return Result{}, err
		}
		memsys = ctrl
	}

	// Per-core private LLC and core model.
	slots := make([]*coreSlot, len(streams))
	// Each LLC is warmed on the head of its core's stream, so the timed
	// region runs in steady state (capacity misses and writebacks). That
	// warm-up stands in for the paper's checkpoint restore, and for
	// benchmark cores it is one: their warmed state is memoized per
	// warm-up key (see warmedCore), so the six designs of a benchmark
	// warm its cache once. Custom streams and GEMM workloads, which
	// have no key, warm in place.
	for i, stream := range streams {
		var llc *cpu.LLC
		switch {
		case keys != nil && !o.SkipLLC && warm > 0:
			llc, stream, err = warmedCore(ctx, keys[i])
		case keys != nil: // no LLC or no warm-up: nothing to restore
			stream = keys[i].stream(keys[i].generator())
		}
		if err != nil {
			return Result{}, err
		}
		if llc == nil && !o.SkipLLC {
			if llc, err = cpu.NewLLC(cpu.LLCConfig{}); err != nil {
				return Result{}, err
			}
			if err := warmLLC(ctx, llc, stream, warm); err != nil {
				return Result{}, err
			}
		}
		cc := cpu.CoreConfig{
			ROB:            o.Core.ROB,
			MSHRs:          o.Core.MSHRs,
			RetireWidth:    o.Core.RetireWidth,
			CPUPerMemCycle: o.Core.CPUPerMemCycle,
			Instructions:   o.Instructions,
		}
		cm, err := cpu.NewCore(cc, stream, llc, memsys)
		if err != nil {
			return Result{}, err
		}
		slots[i] = &coreSlot{core: cm, llc: llc}
	}

	now, err := runSerial(ctx, o, eng, memsys, slots)
	if err != nil {
		return Result{}, err
	}
	if now >= o.MaxCycles {
		return Result{}, fmt.Errorf("fgnvm: run exceeded MaxCycles=%d (core 0 retired %d of %d)",
			o.MaxCycles, slots[0].core.Retired(), o.Instructions)
	}
	// A core retires nothing only when its stream had no access left
	// for the timed run: a custom stream no longer than the warm-up, or
	// an empty one (benchmark and GEMM streams never end).
	for i, s := range slots {
		if s.core.Retired() > 0 {
			continue
		}
		if !o.SkipLLC && warm > 0 {
			return Result{}, fmt.Errorf("fgnvm: core %d has nothing to simulate: its access stream ended within the %d-access LLC warm-up", i, warm)
		}
		return Result{}, fmt.Errorf("fgnvm: core %d has nothing to simulate: its access stream is empty", i)
	}
	emod.AdvanceBackground(now)

	// Per-core IPC at each core's own completion time; Result.IPC is
	// the system throughput (sum), which equals the single core's IPC
	// in the single-core case.
	var sumIPC, minIPC, maxIPC float64
	var retired, stalls uint64
	for i, s := range slots {
		ipc := s.core.IPC(s.finished + 1)
		sumIPC += ipc
		if i == 0 || ipc < minIPC {
			minIPC = ipc
		}
		if ipc > maxIPC {
			maxIPC = ipc
		}
		retired += s.core.Retired()
		stalls += s.core.StallCycles()
	}

	res := Result{
		Design:       o.Design,
		Benchmark:    benchName,
		SAGs:         geom.SAGs,
		CDs:          geom.CDs,
		Cores:        len(slots),
		Instructions: retired,
		Cycles:       now + 1,
		IPC:          sumIPC,
		MinCoreIPC:   minIPC,
		MaxCoreIPC:   maxIPC,

		StallCycles: stalls,
	}
	if ctrl != nil {
		st := ctrl.Stats()
		res.Reads = st.Reads.Value()
		res.Writes = st.Writes.Value()
		res.Activations = st.Activations.Value()
		res.SegmentHits = st.SegmentHits.Value()
		res.BackgroundedRds = st.BackgroundedRds.Value()
		res.AvgReadLatency = st.ReadLatencyHist.Mean()
		res.AvgWriteLatency = st.WriteLatency.Mean()
		res.P50ReadLatency = st.ReadLatencyHist.Percentile(50)
		res.P95ReadLatency = st.ReadLatencyHist.Percentile(95)
		res.P99ReadLatency = st.ReadLatencyHist.Percentile(99)
		res.Energy = EnergyBreakdown{
			ReadPJ:       emod.ReadPJ(),
			WritePJ:      emod.WritePJ(),
			BackgroundPJ: emod.BackgroundPJ(),
			TotalPJ:      emod.TotalPJ(),
			BitsSensed:   emod.BitsSensed(),
			BitsWritten:  emod.BitsWritten(),
		}
		if telAtt != nil {
			res.Stalls = stallBreakdownFrom(telAtt.Causes(), st.QueuedWaitCycles.Value())
		}
		if telOcc != nil {
			res.TileOccupancy = telOcc.Matrix()
		}
		if telTrc != nil {
			res.TraceEvents = telTrc.Events()
			if err := telTrc.Export(o.Telemetry.TraceWriter); err != nil {
				return Result{}, fmt.Errorf("fgnvm: writing trace: %w", err)
			}
		}
	} else {
		st := dsys.Stats()
		res.Reads = st.Reads.Value()
		res.Writes = st.Writes.Value()
		res.Activations = st.Activations.Value()
		res.SegmentHits = st.RowHits.Value()
		res.AvgReadLatency = st.ReadLatency.Mean()
		res.AvgWriteLatency = st.WriteLatency.Mean()
		// DRAM energy is deliberately not modeled: the comparison with
		// the NVM designs is performance-only.
	}
	if !o.SkipLLC {
		// Average miss rate across the private LLCs.
		var sum float64
		for _, s := range slots {
			sum += s.llc.MissRate()
		}
		res.LLCMissRate = sum / float64(len(slots))
	}
	return res, nil
}

// memDevice is the run loop's view of the memory side. Beyond accepting
// and cycling requests, a device must support the fast-forward
// protocol: report how much it issued (Cycle's return), bound when it
// could next act (NextWork), and batch-credit skipped quiescent cycles
// (SkipCycles/SkipRejects). The NVM controller implements it in full;
// the DRAM reference system's NextWork always answers the next cycle,
// so it never jumps and its Skip methods are no-ops.
type memDevice interface {
	cpu.MemorySystem
	Cycle(now sim.Tick) int
	Drained() bool
	NextWork(now sim.Tick) sim.Tick
	SkipCycles(now sim.Tick, n uint64)
	SkipRejects(r *mem.Request, now sim.Tick, n uint64)
}

// coreSlot tracks one core, its private LLC and its completion tick.
type coreSlot struct {
	core     *cpu.Core
	llc      *cpu.LLC
	finished sim.Tick
	done     bool
}

// runSerial is the run loop: one goroutine, one controller
// cycle at a time; completions scheduled on the engine fire before the
// cycle's scheduling work. Finished cores stop fetching; the run ends
// when the last core retires its budget and memory drains. It returns
// the final tick; the caller treats now >= MaxCycles as the deadlock
// backstop.
//
// Idle-cycle fast-forward: when a cycle issued no memory command and
// every live core is provably Blocked, nothing can happen until the
// earliest of the next scheduled event and the memory system's next
// work tick (NextWork) — every scheduling predicate is constant in
// between, so the intervening cycles would each repeat exactly the
// same no-op with the same counter increments. The loop jumps
// straight to that tick, batch-crediting the per-cycle accounting
// (core stall cycles, the queued-wait counter, weighted
// stall-attribution events, rejected-retry telemetry), which keeps
// fast-forwarded runs byte-identical to cycle-by-cycle runs — the
// property the differential tests pin. The paper's long PCM write
// windows (Section 4.3) are precisely where this pays off; a DRAM run,
// whose commands come too densely to pay for a probe, never jumps
// (see dram.System.NextWork) and is stepped cycle by cycle. The loop
// probes whenever a jump is possible; a probe only decides whether to
// jump. Each channel reads its bank timers from one release calendar
// (core.Calendar), whose first tick is at or below the true next
// release, so a jump may land early but never past a release.
func runSerial(ctx context.Context, o Options, eng *sim.Engine, memsys memDevice, slots []*coreSlot) (sim.Tick, error) {
	var now sim.Tick
	for ; now < o.MaxCycles; now++ {
		if now&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		eng.RunUntil(now)
		allDone := true
		for _, s := range slots {
			if s.done {
				continue
			}
			s.core.Cycle(now)
			if s.core.Finished() {
				s.done = true
				s.finished = now
			} else {
				allDone = false
			}
		}
		issued := memsys.Cycle(now)
		if allDone && memsys.Drained() {
			break
		}
		if o.DisableFastForward || issued != 0 {
			continue
		}
		// Cheapest test first: with a completion due next tick (the
		// common case while requests are in service) no jump is
		// possible, and the costlier quiescence probes are skipped.
		target := eng.NextEventTick()
		if target <= now+1 {
			continue
		}
		quiescent := true
		for _, s := range slots {
			if !s.done && !s.core.Blocked() {
				quiescent = false
				break
			}
		}
		if !quiescent {
			continue
		}
		if w := memsys.NextWork(now); w < target {
			target = w
		}
		if target > o.MaxCycles {
			// Nothing is ever going to happen (deadlock backstop) or the
			// next action lies past the cycle budget either way: land on
			// MaxCycles so the loop exits through its normal error path.
			target = o.MaxCycles
		}
		if target <= now+1 {
			continue // nothing to skip
		}
		skip := uint64(target - now - 1)
		for _, s := range slots {
			if s.done {
				continue
			}
			s.core.SkipStallCycles(skip)
			if r := s.core.RetryRequest(); r != nil {
				memsys.SkipRejects(r, now, skip)
			}
		}
		memsys.SkipCycles(now, skip)
		now = target - 1 // the loop increment lands exactly on target
		// The masked cancellation poll above can be starved by large
		// jumps (now skips most mask-aligned ticks), so re-check after
		// every jump: a cancelled run must stop even when it is
		// fast-forwarding through a multi-thousand-cycle write drain.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	return now, nil
}

// checkBenchmark rejects a name that is not a built-in profile.
func checkBenchmark(name string) error {
	if _, ok := trace.ProfileByName(name); !ok {
		return fmt.Errorf("fgnvm: unknown benchmark %q", name)
	}
	return nil
}

// Benchmarks returns the names of the built-in workload profiles in
// presentation order.
func Benchmarks() []string {
	ps := trace.Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}
