package fgnvm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/timing"
	"repro/internal/trace"
)

// fuzzDiffAllocBudget bounds the bytes one FuzzRunDifferential input may
// allocate over its three runs. The decoded grids stay far below the
// bank-state budget, so a run of at most 2,000 instructions allocates a
// few MB; the bound catches a state that grows with simulated time.
const fuzzDiffAllocBudget = 256 << 20

// fuzzSpec is one FuzzRunDifferential input: every Options field,
// packed into a few small integers so seed entries stay readable.
type fuzzSpec struct {
	// design selects the Design modulo 7; 6 is an unknown design.
	design uint8
	// grid: SAGs in bits 0–2 and CDs in bits 3–5, each 0 (the default)
	// or 1<<(v-1).
	grid uint8
	// source: bits 0–1 pick Benchmark, Mix, Stream(s) or Workload; bits
	// 2–3 the core count (0 is the default); bit 4 SkipLLC; bits 5–6 the
	// warm-up length.
	source uint8
	// pick indexes the benchmark, the GEMM preset and tiling, or the
	// stream shape; its bit 7 asks for four Mix cores or two Streams.
	pick uint8
	// geom: bit 7 attaches a Geometry of 1, 2 or 4 channels (bits 0–1),
	// 1 or 2 ranks (bit 2), 2 to 16 banks (bits 3–4), and rows, columns
	// and line size from fuzzArrays (bits 5–6).
	geom uint8
	// modes: bit 3 attaches Modes, whose three flags are bits 0–2.
	modes uint8
	// ctrl: bit 0 the scheduler, bit 1 the technology, bits 2–4 the
	// issue lanes (0–4), bits 5–6 a Timings override.
	ctrl uint8
	// cpu: two bits each for ROB, MSHRs, retire width and the clock
	// ratio, 0 being the default.
	cpu uint8
	// device: 0 for none, else a Device model's feature size and tile.
	// A Device beside a Timings override, a clean error, needs bits 6–7
	// set.
	device uint8
	// maxCycles: odd values set MaxCycles to maxCycles>>1.
	maxCycles uint16
	instr     uint16
	// tel picks the telemetry of the observed runs: bit 0 Attribution,
	// bit 1 Occupancy, bit 2 a TraceWriter, bit 3 a counting event Sink.
	tel uint8
	// seed is Options.Seed; an odd seed also gives a Workload an
	// explicit shape, drawn from its other bits, in place of a preset.
	seed uint64
}

// options builds the Options of s. Streams are consumed by a run, so
// every run needs a fresh build.
func (s fuzzSpec) options() Options {
	o := Options{
		Design:       Design(s.design % 7),
		Instructions: 1 + uint64(s.instr)%2_000,
		Seed:         s.seed,
		Cores:        int(s.source>>2) & 3,
		SkipLLC:      s.source&0x10 != 0,
		// -1 disables the warm-up; 0 is the default length.
		WarmupAccesses: [...]int{0, -1, 512, 4096}[s.source>>5&3],
		Scheduler:      Scheduler(s.ctrl & 1),
		Technology:     Technology(s.ctrl >> 1 & 1),
		IssueLanes:     int(s.ctrl>>2&7) % 5,
		Core: CoreParams{
			ROB:            [...]int{0, 16, 64, 256}[s.cpu&3],
			MSHRs:          [...]int{0, 1, 4, 16}[s.cpu>>2&3],
			RetireWidth:    [...]int{0, 1, 2, 8}[s.cpu>>4&3],
			CPUPerMemCycle: [...]int{0, 1, 4, 16}[s.cpu>>6&3],
		},
	}
	pow := func(v uint8) int {
		if v == 0 {
			return 0
		}
		return 1 << (v - 1)
	}
	o.SAGs, o.CDs = pow(s.grid&7), pow(s.grid>>3&7)
	names := Benchmarks()
	bench := func(i int) string { return names[i%len(names)] }
	switch s.source & 3 {
	case 0:
		o.Benchmark = bench(int(s.pick))
	case 1:
		o.Mix = []string{bench(int(s.pick)), bench(int(s.pick) + 1)}
		if s.pick&0x80 != 0 {
			o.Mix = append(o.Mix, bench(int(s.pick)+2), bench(int(s.pick)+3))
		}
	case 2:
		if s.pick&0x80 == 0 {
			o.Stream = fuzzStream(s.seed, int(s.pick))
			break
		}
		for i := uint64(0); i < 2; i++ {
			o.Streams = append(o.Streams, fuzzStream(s.seed+i, int(s.pick&0x7f)))
		}
	case 3:
		o.Workload = &WorkloadSpec{Tiling: WorkloadTilings()[int(s.pick>>4)%len(WorkloadTilings())]}
		if s.seed&1 == 0 {
			presets := WorkloadPresets()
			o.Workload.Preset = presets[int(s.pick)%len(presets)]
			break
		}
		dim := func(shift uint) int { return 1 << (s.seed >> shift & 7) }
		tile := func(shift uint) int { return [...]int{0, 8, 32, 128}[s.seed>>shift&3] }
		o.Workload.M, o.Workload.K, o.Workload.N = dim(1), dim(4), dim(7)
		o.Workload.WordBytes = [...]int{0, 1, 2, 4}[s.seed>>10&3]
		o.Workload.Accumulate = s.seed>>12&1 != 0
		o.Workload.TileM, o.Workload.TileK, o.Workload.TileN = tile(13), tile(15), tile(17)
		o.Workload.Gap = int(s.seed >> 19 & 7)
	}
	if s.geom&0x80 != 0 {
		g := addr.PaperGeometry()
		g.Channels = [...]int{1, 2, 4, 4}[s.geom&3]
		g.Ranks = 1 << (s.geom >> 2 & 1)
		g.Banks = 2 << (s.geom >> 3 & 3)
		a := fuzzArrays[s.geom>>5&3]
		g.Rows, g.Cols, g.LineBytes = a.rows, a.cols, a.lineBytes
		o.Geometry = &g
	}
	if s.modes&8 != 0 {
		o.Modes = &AccessModeSet{
			PartialActivation:  s.modes&1 != 0,
			MultiActivation:    s.modes&2 != 0,
			BackgroundedWrites: s.modes&4 != 0,
		}
	}
	if scale := s.ctrl >> 5 & 3; scale != 0 {
		ns := timing.PaperPCM()
		f := [...]float64{0, 0.1, 0.5, 2}[scale]
		ns.TRCDns, ns.TCASns, ns.TCWDns, ns.TWPns, ns.TWRns =
			ns.TRCDns*f, ns.TCASns*f, ns.TCWDns*f, ns.TWPns*f, ns.TWRns*f
		ns.TCCDcy, ns.TBURST = uint64(scale), uint64(scale)
		tm := timing.MustNew(ns, timing.DefaultClockMHz)
		o.Timings = &tm
	}
	if s.device != 0 && (o.Timings == nil || s.device>>6 == 3) {
		o.Device = &DeviceParams{
			FeatureNm: [...]float64{0, 22, 32, 45}[s.device&3],
			TileRows:  [...]int{0, 256, 1024, 4096}[s.device>>2&3],
			TileCols:  [...]int{0, 256, 1024, 4096}[s.device>>4&3],
		}
	}
	if s.maxCycles&1 != 0 {
		o.MaxCycles = sim.Tick(s.maxCycles >> 1)
	}
	return o
}

// fuzzArrays are the bank arrays a decoded Geometry may take: the
// paper's, then fewer and longer rows, shorter lines, and few rows of
// short lines. Each has at least 64 rows and columns, so every decoded
// grid (at most 64 SAGs and 64 CDs) divides it, and none changes the
// bank state Canonical bounds.
var fuzzArrays = [4]struct{ rows, cols, lineBytes int }{
	{65536, 64, 64},
	{1024, 64, 128},
	{65536, 128, 32},
	{256, 256, 16},
}

// fuzzStream is a custom access stream: a SplitMix64 walk over addresses,
// write mix and gaps, with shape picking the footprint and write share.
// It outlasts the longest decoded warm-up (the default) by 1,024
// accesses, so every warm-up length leaves a timed run to simulate.
func fuzzStream(seed uint64, shape int) trace.Stream {
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	footprint := uint64(1) << (16 + shape%12)
	accs := make([]trace.Access, DefaultWarmupAccesses+1024)
	for i := range accs {
		accs[i] = trace.Access{
			Gap:   uint32(next() % 16),
			Addr:  (next() % footprint) &^ 63,
			Write: next()%100 < uint64(10*(shape%8)),
		}
	}
	return trace.NewSliceStream(accs)
}

// countingSink counts the events a user Sink gets.
type countingSink struct {
	commands, requests uint64
}

func (c *countingSink) Command(telemetry.Command)      { c.commands++ }
func (c *countingSink) Request(telemetry.RequestEvent) { c.requests++ }

// attachTelemetry attaches the consumers tel picks to o, the trace writing
// to buf, and returns the counting Sink when one is attached.
func (s fuzzSpec) attachTelemetry(o *Options, buf *bytes.Buffer) *countingSink {
	if s.tel&15 == 0 {
		return nil
	}
	o.Telemetry = &TelemetryOptions{Attribution: s.tel&1 != 0, Occupancy: s.tel&2 != 0}
	if s.tel&4 != 0 {
		o.Telemetry.TraceWriter = buf
	}
	if s.tel&8 == 0 {
		return nil
	}
	sink := &countingSink{}
	o.Telemetry.Sink = sink
	return sink
}

// FuzzRunDifferential runs a decoded point of the whole Options space
// three times: with fast-forward and the decoded telemetry, without
// fast-forward and with the decoded telemetry, and with fast-forward
// and no telemetry. Each run must return a clean error or finish
// within fuzzRunBudget, and the three together must stay within
// fuzzDiffAllocBudget. The first two must fail alike or succeed with
// the same Result JSON, the same Perfetto bytes and the same command
// and request counts at a user Sink, and the third must agree with them
// on every machine field. Attributed stalls must sum to the queued-wait
// cycles.
func FuzzRunDifferential(f *testing.F) {
	// One entry per design, on the paper grid and a small benchmark run.
	for _, d := range Designs() {
		f.Add(uint8(d), uint8(0), uint8(0), uint8(d), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), uint16(1500), uint8(7), uint64(1))
	}
	// An ablation: FgNVM with Partial-Activation and Backgrounded Writes
	// only, FCFS, a 4×4 grid.
	f.Add(uint8(DesignFgNVM), uint8(3|3<<3), uint8(0), uint8(2), uint8(0), uint8(8|1|4), uint8(1), uint8(0), uint8(0), uint16(0), uint16(1999), uint8(7), uint64(3))
	// A 4-channel, 2-rank, 4-bank Mix of four benchmarks on Multi-Issue.
	f.Add(uint8(DesignFgNVMMultiIssue), uint8(0), uint8(1), uint8(0x80|5), uint8(0x80|2|1<<2|1<<3), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), uint16(1200), uint8(7), uint64(9))
	// An explicit GEMV shape, accumulating, on FgNVM.
	f.Add(uint8(DesignFgNVM), uint8(0), uint8(3|1<<5), uint8(0x20), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), uint16(1500),
		uint8(7), uint64(1|6<<1|7<<4|0<<7|2<<10|1<<12|1<<13|2<<15|3<<19))
	// A GEMM preset on SALP, two cores, RRAM, custom core and device.
	f.Add(uint8(DesignSALP), uint8(4), uint8(3|2<<2|1<<4), uint8(0x11), uint8(0), uint8(0), uint8(2), uint8(0x1b), uint8(0x15), uint16(0), uint16(800), uint8(7), uint64(0))
	// Custom streams on FgNVM with 2-lane issue and fast timings, no
	// warm-up.
	f.Add(uint8(DesignFgNVM), uint8(2|2<<3), uint8(2|1<<5), uint8(0x80|9), uint8(0x80|1|2<<3), uint8(0), uint8(2<<2|1<<5), uint8(0), uint8(0), uint16(0), uint16(600), uint8(7), uint64(5))
	// A custom stream behind the default LLC warm-up.
	f.Add(uint8(DesignFgNVM), uint8(0), uint8(2), uint8(4), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), uint16(1500), uint8(7), uint64(11))
	// FgNVM 8x2 with all four consumers: Attribution, Occupancy, a
	// trace and a user Sink.
	f.Add(uint8(DesignFgNVM), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), uint16(1500), uint8(15), uint64(7))
	// 256×256 arrays of 16-byte lines on 2 channels, a 64×64 grid, with
	// all four consumers.
	f.Add(uint8(DesignFgNVM), uint8(7|7<<3), uint8(0), uint8(1), uint8(0x80|1|3<<5), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), uint16(1500), uint8(15), uint64(7))
	// A GEMM preset on 1,024-row arrays of 128-byte lines, many banks.
	f.Add(uint8(DesignManyBanks), uint8(0), uint8(3), uint8(0x21), uint8(0x80|1<<5), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), uint16(1500), uint8(9), uint64(2))
	// A MaxCycles far too small to finish: both runs must fail alike.
	f.Add(uint8(DesignFgNVM), uint8(0), uint8(0), uint8(3), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(2*200+1), uint16(1000), uint8(7), uint64(1))
	// A 3-core GEMM preset behind a 512-access warm-up on a 64×32
	// many-banks grid (16,384 one-tile banks), with Attribution and
	// Occupancy.
	f.Add(uint8(DesignManyBanks), uint8(7|6<<3), uint8(3|3<<2|2<<5), uint8(3), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint16(0), uint16(1568), uint8(3), uint64(2))
	f.Fuzz(func(t *testing.T, design, grid, source, pick, geom, modes, ctrl, cpu, device uint8,
		maxCycles, instr uint16, tel uint8, seed uint64) {
		spec := fuzzSpec{design, grid, source, pick, geom, modes, ctrl, cpu, device, maxCycles, instr, tel, seed}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		// run returns the Result JSON, the same without its telemetry
		// fields (the machine), the Perfetto bytes and the user Sink's
		// event counts.
		run := func(ff, traced bool) (full, machine, perfetto []byte, sunk countingSink, err error) {
			o := spec.options()
			o.DisableFastForward = !ff
			var buf bytes.Buffer
			var sink *countingSink
			if traced {
				sink = spec.attachTelemetry(&o, &buf)
			}
			ctx, cancel := context.WithTimeout(context.Background(), fuzzRunBudget)
			defer cancel()
			r, err := RunContext(ctx, o)
			if errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%+v (ff=%v) did not finish within %v", spec, ff, fuzzRunBudget)
			}
			if err != nil {
				return nil, nil, nil, sunk, err
			}
			if st := r.Stalls; st != nil && st.Sum() != st.QueuedWaitCycles {
				t.Fatalf("%+v (ff=%v): stalls sum to %d, QueuedWaitCycles is %d", spec, ff, st.Sum(), st.QueuedWaitCycles)
			}
			if sink != nil {
				sunk = *sink
			}
			full = mustJSON(t, r)
			r.Stalls, r.TileOccupancy, r.TraceEvents = nil, nil, 0
			return full, mustJSON(t, r), buf.Bytes(), sunk, nil
		}
		ffRes, ffMachine, ffTrace, ffSunk, ffErr := run(true, true)
		refRes, _, refTrace, refSunk, refErr := run(false, true)
		if (ffErr == nil) != (refErr == nil) || ffErr != nil && ffErr.Error() != refErr.Error() {
			t.Fatalf("%+v: fast-forward err %v, reference err %v", spec, ffErr, refErr)
		}
		if ffErr != nil {
			return
		}
		if !bytes.Equal(ffRes, refRes) {
			t.Fatalf("%+v: Result diverged from the cycle-by-cycle reference:\n  ff : %s\n  ref: %s", spec, ffRes, refRes)
		}
		if !bytes.Equal(ffTrace, refTrace) {
			t.Fatalf("%+v: Perfetto trace diverged from the cycle-by-cycle reference (%d vs %d bytes)", spec, len(ffTrace), len(refTrace))
		}
		if ffSunk != refSunk {
			t.Fatalf("%+v: the Sink's event counts diverged from the cycle-by-cycle reference:\n  ff : %+v\n  ref: %+v", spec, ffSunk, refSunk)
		}
		_, bare, _, _, err := run(true, false)
		if err != nil {
			t.Fatalf("%+v: telemetry-off run failed: %v", spec, err)
		}
		if !bytes.Equal(ffMachine, bare) {
			t.Fatalf("%+v: attaching telemetry moved the machine:\n  bare    : %s\n  observed: %s", spec, bare, ffMachine)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > fuzzDiffAllocBudget {
			t.Fatalf("%+v: allocated %d MB, budget %d MB", spec, n>>20, fuzzDiffAllocBudget>>20)
		}
	})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	j, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return j
}
