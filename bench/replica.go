package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	fgnvm "repro"
	"repro/internal/addr"
	"repro/internal/bank"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/timing"
	"repro/internal/trace"
)

// The replica rebuilds the simulation stack from the internal
// constructors and runs it with a copy of fgnvm's serial run loop
// (runSerial, fast-forward included), so that the calls into each layer
// can be timed from outside without changing program code. It covers
// the configurations the benchmark replicates: Benchmark workloads on
// the default timings, technology, scheduler and access modes,
// optionally with Telemetry. Everything else is refused with
// errNotReplicable. replica_test.go pins its counters to fgnvm.Run's.

var errNotReplicable = errors.New("configuration is not replicated")

// counters are the Result fields the replica must reproduce exactly.
type counters struct {
	Cycles       sim.Tick
	Instructions uint64
	StallCycles  uint64
	Reads        uint64
	Writes       uint64
	Activations  uint64
}

func countersOf(r fgnvm.Result) counters {
	return counters{
		Cycles: r.Cycles, Instructions: r.Instructions, StallCycles: r.StallCycles,
		Reads: r.Reads, Writes: r.Writes, Activations: r.Activations,
	}
}

// replicaStats are the per-run counts the traced pass reports beyond
// the ledger's span totals.
type replicaStats struct {
	events     uint64        // engine events dispatched by RunUntil
	cycleCalls uint64        // Core.Cycle calls
	ctrlCycles uint64        // Controller.Cycle calls
	ctrlIssued uint64        // Controller.Cycle calls that issued a command
	enqueues   uint64        // Enqueue calls from the cores
	rejects    uint64        // Enqueue calls refused
	nexts      uint64        // Stream.Next calls, warm-up included
	warmups    uint64        // warm-up accesses run through the LLCs
	probes     uint64        // fast-forward quiescence probes
	jumps      uint64        // probes that skipped ahead
	skipped    uint64        // cycles skipped by jumps
	llcHits    uint64        // LLC hits in the timed region
	llcMisses  uint64        // LLC misses in the timed region
	setup      time.Duration // stack construction and warm-up
}

// memDevice is the run loop's view of the memory side, as in fgnvm.
type memDevice interface {
	cpu.MemorySystem
	Cycle(now sim.Tick) int
	Drained() bool
	NextWork(now sim.Tick) sim.Tick
	SkipCycles(now sim.Tick, n uint64)
	SkipRejects(r *mem.Request, now sim.Tick, n uint64)
}

// timedStream and timedMemory are the timing shims: they time each call
// into the trace generator and each Enqueue into the memory side.
type timedStream struct {
	s     trace.Stream
	led   *ledger
	stats *replicaStats
}

func (t *timedStream) Next() (trace.Access, bool) {
	t.led.begin(layerTrace)
	a, ok := t.s.Next()
	t.led.end()
	t.stats.nexts++
	return a, ok
}

type timedMemory struct {
	memDevice
	led   *ledger
	stats *replicaStats
}

func (t *timedMemory) Enqueue(r *mem.Request, now sim.Tick) bool {
	t.led.begin(layerEnqueue)
	ok := t.memDevice.Enqueue(r, now)
	t.led.end()
	t.stats.enqueues++
	if !ok {
		t.stats.rejects++
	}
	return ok
}

type replicaSlot struct {
	core *cpu.Core
	llc  *cpu.LLC
	done bool
}

// replicate runs o on the replica stack. led may be nil (untraced: no
// shims, no timestamps); stats, when non-nil, accumulates the run's
// counts. A telemetry trace is exported to o.Telemetry.TraceWriter.
func replicate(ctx context.Context, o fgnvm.Options, led *ledger, stats *replicaStats) (counters, error) {
	if o.Stream != nil || o.Streams != nil || o.Mix != nil || o.Workload != nil || o.Timings != nil ||
		o.Device != nil || o.Technology != fgnvm.TechPCM || o.Scheduler != fgnvm.SchedFRFCFS ||
		o.Modes != nil || o.Core != (fgnvm.CoreParams{}) || o.WarmupAccesses != 0 ||
		(o.Telemetry != nil && o.Telemetry.Sink != nil) {
		return counters{}, errNotReplicable
	}
	if stats == nil {
		stats = &replicaStats{}
	}
	setupStart := time.Now()
	led.begin(layerSetup)

	o = withDefaults(o)
	geom, modes, err := resolveDesign(o)
	if err != nil {
		return counters{}, err
	}
	if err := geom.Validate(); err != nil {
		return counters{}, err
	}

	streams, err := benchmarkStreams(o, geom)
	if err != nil {
		return counters{}, err
	}
	if led != nil {
		for i, st := range streams {
			streams[i] = &timedStream{s: st, led: led, stats: stats}
		}
	}

	emod := energy.New(energy.Config{
		RowBufferBits: geom.RowBytes() * 8,
		Banks:         geom.Channels * geom.Ranks * geom.Banks,
	})
	eng := sim.NewEngine()
	var memsys memDevice
	var ctrl *controller.Controller
	var dsys *dram.System
	var telTrc *telemetry.Trace
	if o.Design == fgnvm.DesignDRAM {
		dsys, err = dram.New(dram.Config{Geom: geom, Tim: dram.Defaults(), Interleave: addr.RowBankRankChanCol}, eng)
		if err != nil {
			return counters{}, err
		}
		memsys = dsys
	} else {
		var sink telemetry.Sink
		if t := o.Telemetry; t != nil {
			var fan telemetry.Fanout
			if t.Attribution {
				fan = append(fan, telemetry.NewAttribution(geom))
			}
			if t.Occupancy {
				fan = append(fan, telemetry.NewOccupancy(geom))
			}
			if t.TraceWriter != nil {
				telTrc = telemetry.NewTrace(geom, o.IssueLanes)
				fan = append(fan, telTrc)
				eng.SetHook(telTrc.EngineSample)
			}
			sink = fan.Compact()
		}
		ccfg := controller.Config{
			Geom: geom, Tim: timing.Paper(), Modes: modes,
			Scheduler: controller.FRFCFS, IssueLanes: o.IssueLanes,
			Interleave: addr.RowBankRankChanCol,
			Energy:     emod,
			Telemetry:  sink,
		}
		if telTrc != nil {
			ccfg.EngineHook = telTrc.EngineSample
		}
		ctrl, err = controller.New(ccfg, eng)
		if err != nil {
			return counters{}, err
		}
		memsys = ctrl
	}
	var coreMem cpu.MemorySystem = memsys
	if led != nil {
		coreMem = &timedMemory{memDevice: memsys, led: led, stats: stats}
	}

	slots := make([]*replicaSlot, len(streams))
	for i, stream := range streams {
		var llc *cpu.LLC
		if !o.SkipLLC {
			llc, err = cpu.NewLLC(cpu.LLCConfig{})
			if err != nil {
				return counters{}, err
			}
			for j := 0; j < 2*(2<<20)/64; j++ {
				a, ok := stream.Next()
				if !ok {
					break
				}
				llc.Access(a.Addr, a.Write)
				stats.warmups++
			}
		}
		cm, err := cpu.NewCore(cpu.CoreConfig{Instructions: o.Instructions}, stream, llc, coreMem)
		if err != nil {
			return counters{}, err
		}
		slots[i] = &replicaSlot{core: cm, llc: llc}
	}
	var hits0, misses0 uint64
	for _, s := range slots {
		if s.llc != nil {
			hits0 += s.llc.Hits()
			misses0 += s.llc.Misses()
		}
	}
	led.end()
	stats.setup += time.Since(setupStart)

	now, err := replicaLoop(ctx, o.MaxCycles, eng, memsys, slots, led, stats)
	if err != nil {
		return counters{}, err
	}
	if now >= o.MaxCycles {
		return counters{}, fmt.Errorf("run exceeded MaxCycles=%d", o.MaxCycles)
	}
	emod.AdvanceBackground(now)

	c := counters{Cycles: now + 1}
	for _, s := range slots {
		c.Instructions += s.core.Retired()
		c.StallCycles += s.core.StallCycles()
		if s.llc != nil {
			stats.llcHits += s.llc.Hits()
			stats.llcMisses += s.llc.Misses()
		}
	}
	stats.llcHits -= hits0
	stats.llcMisses -= misses0
	if ctrl != nil {
		st := ctrl.Stats()
		c.Reads, c.Writes, c.Activations = st.Reads.Value(), st.Writes.Value(), st.Activations.Value()
	} else {
		st := dsys.Stats()
		c.Reads, c.Writes, c.Activations = st.Reads.Value(), st.Writes.Value(), st.Activations.Value()
	}
	if telTrc != nil {
		led.begin(layerExport)
		err := telTrc.Export(o.Telemetry.TraceWriter)
		led.end()
		if err != nil {
			return counters{}, fmt.Errorf("writing trace: %w", err)
		}
	}
	return c, nil
}

// withDefaults fills o's zero fields as fgnvm's Options.applyDefaults does.
func withDefaults(o fgnvm.Options) fgnvm.Options {
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
	if o.IssueLanes == 0 {
		o.IssueLanes = 1
		if o.Design == fgnvm.DesignFgNVMMultiIssue {
			o.IssueLanes = 4
		}
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 2_000_000_000
	}
	return o
}

// benchmarkStreams builds the per-core streams fgnvm builds for o's
// Benchmark: differently seeded generators, 512 MiB apart.
func benchmarkStreams(o fgnvm.Options, geom addr.Geometry) ([]trace.Stream, error) {
	p, ok := trace.ProfileByName(o.Benchmark)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", o.Benchmark)
	}
	streams := make([]trace.Stream, max(o.Cores, 1))
	for i := range streams {
		var s trace.Stream = trace.NewGenerator(p, geom.LineBytes, geom.RowBytes(), o.Seed+uint64(i)*0x9e3779b9)
		if i > 0 {
			s = trace.NewOffset(s, uint64(i)<<29)
		}
		streams[i] = s
	}
	return streams, nil
}

// resolveDesign derives geometry and access modes as fgnvm does.
func resolveDesign(o fgnvm.Options) (addr.Geometry, core.AccessModes, error) {
	g := addr.PaperGeometry()
	if o.Geometry != nil {
		g = *o.Geometry
	}
	switch o.Design {
	case fgnvm.DesignBaseline, fgnvm.DesignDRAM:
		g.SAGs, g.CDs = 1, 1
		return g, core.AccessModes{}, nil
	case fgnvm.DesignFgNVM, fgnvm.DesignFgNVMMultiIssue:
		g.SAGs, g.CDs = o.SAGs, o.CDs
		return g, core.AllModes(), nil
	case fgnvm.DesignSALP:
		g.SAGs, g.CDs = o.SAGs, 1
		return g, core.AccessModes{MultiActivation: true, BackgroundedWrites: true, LocalSenseAmps: true}, nil
	case fgnvm.DesignManyBanks:
		g.SAGs, g.CDs = o.SAGs, o.CDs
		mg, err := bank.ManyBanksGeometry(g)
		return mg, core.AccessModes{}, err
	}
	return addr.Geometry{}, core.AccessModes{}, fmt.Errorf("unknown design %d", int(o.Design))
}

// replicaLoop is fgnvm's runSerial with spans around the calls into the
// engine, the cores, the memory side and the fast-forward probe.
func replicaLoop(ctx context.Context, maxCycles sim.Tick, eng *sim.Engine, memsys memDevice, slots []*replicaSlot, led *ledger, stats *replicaStats) (sim.Tick, error) {
	const ctxCheckMask = 1<<12 - 1
	var probeRetry, probeBackoff, now sim.Tick
	for ; now < maxCycles; now++ {
		if now&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		led.begin(layerSim)
		stats.events += uint64(eng.RunUntil(now))
		led.end()
		allDone := true
		for _, s := range slots {
			if s.done {
				continue
			}
			led.begin(layerCPU)
			s.core.Cycle(now)
			led.end()
			stats.cycleCalls++
			if s.core.Finished() {
				s.done = true
			} else {
				allDone = false
			}
		}
		led.begin(layerController)
		issued := memsys.Cycle(now)
		led.end()
		stats.ctrlCycles++
		if issued != 0 {
			stats.ctrlIssued++
		}
		if allDone && memsys.Drained() {
			break
		}
		if issued != 0 {
			continue
		}
		target := eng.NextEventTick()
		if target <= now+1 || now < probeRetry {
			continue
		}
		led.begin(layerFF)
		stats.probes++
		quiescent := true
		for _, s := range slots {
			if !s.done && !s.core.Blocked() {
				quiescent = false
				break
			}
		}
		if quiescent {
			if w := memsys.NextWork(now); w < target {
				target = w
			}
			target = min(target, maxCycles)
		}
		if !quiescent || target <= now+1 {
			probeBackoff = min(probeBackoff*2+1, 64)
			probeRetry = now + probeBackoff
			led.end()
			continue
		}
		skip := uint64(target - now - 1)
		probeBackoff = 0
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
		stats.jumps++
		stats.skipped += skip
		led.end()
		now = target - 1
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	return now, nil
}
