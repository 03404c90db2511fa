// Package hookpurity is the fixture for the hook-purity analyzer:
// telemetry sinks and kernel hooks must observe, never mutate.
package hookpurity

import (
	"repro/internal/controller"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

var globalEvents int

// GoodSink accumulates only its own state: allowed.
type GoodSink struct {
	commands int
	lastTick sim.Tick
}

func (s *GoodSink) Command(ev telemetry.Command) {
	s.commands++
	s.lastTick = ev.Start
}
func (s *GoodSink) Request(telemetry.RequestEvent)     {}
func (s *GoodSink) Stall(telemetry.StallCause, uint64) {}

// BadSink writes package state and drives the engine: flagged twice.
type BadSink struct {
	eng *sim.Engine
}

func (s *BadSink) Command(telemetry.Command) {
	globalEvents++                                    // want "package-level state"
	s.eng.ScheduleArg(1, func(sim.Tick, any) {}, nil) // want "state-mutating"
}
func (s *BadSink) Request(telemetry.RequestEvent)     {}
func (s *BadSink) Stall(telemetry.StallCause, uint64) {}

// Sampler has the sim.Hook signature, so its body is held to the same
// rules even though it is not a Sink method.
type Sampler struct {
	depth int
}

// EngineSample observes queue depth: allowed.
func (s *Sampler) EngineSample(now sim.Tick, pending int) {
	if pending > s.depth {
		s.depth = pending
	}
}

// DrainSample advances the engine from inside a hook: flagged.
func (s *Sampler) DrainSample(now sim.Tick, pending int) {
	s.eng().Advance(now) // want "state-mutating"
}

func (s *Sampler) eng() *sim.Engine { return nil }

// RecyclingSink drains a request pool from telemetry context: flagged.
// Pool traffic recycles request identity, so a sink that touches the
// free list can alias a live request with a future one.
type RecyclingSink struct {
	pool  *mem.Pool
	spare *mem.Request
}

func (s *RecyclingSink) Command(telemetry.Command) {
	s.spare = s.pool.Get() // want "state-mutating"
}
func (s *RecyclingSink) Request(telemetry.RequestEvent) {
	s.pool.Put(s.spare) // want "state-mutating"
	s.spare.Reset()     // want "state-mutating"
}
func (s *RecyclingSink) Stall(telemetry.StallCause, uint64) {}

// DrivingSink feeds the memory systems from telemetry context: an NVM
// controller's skipped retries, and DRAM admission and scheduling.
// Flagged.
type DrivingSink struct {
	ctrl *controller.Controller
	dram *dram.System
	req  *mem.Request
}

func (s *DrivingSink) Command(ev telemetry.Command) {
	s.ctrl.SkipRejects(s.req, ev.Start, 1) // want "state-mutating"
	s.dram.Enqueue(s.req, ev.Start)        // want "state-mutating"
}
func (s *DrivingSink) Request(telemetry.RequestEvent) {
	s.dram.Cycle(0) // want "state-mutating"
}
func (s *DrivingSink) Stall(telemetry.StallCause, uint64) {}

// ChargingSink charges energy and touches the LLC from telemetry
// context: both change the Result. Flagged.
type ChargingSink struct {
	energy *energy.Model
	llc    *cpu.LLC
}

func (s *ChargingSink) Command(telemetry.Command) {
	s.energy.Sense(64) // want "state-mutating"
}
func (s *ChargingSink) Request(telemetry.RequestEvent) {
	s.llc.Access(0, false) // want "state-mutating"
}
func (s *ChargingSink) Stall(telemetry.StallCause, uint64) {}

// ReleasingSink hands the run's LLC lines and trace chunks back to
// their pools from telemetry context, while the run still uses them.
// Flagged.
type ReleasingSink struct {
	llc   *cpu.LLC
	trace *telemetry.Trace
}

func (s *ReleasingSink) Command(telemetry.Command) {
	s.llc.Release() // want "state-mutating"
}
func (s *ReleasingSink) Request(telemetry.RequestEvent) {
	s.trace.Release() // want "state-mutating"
}
func (s *ReleasingSink) Stall(telemetry.StallCause, uint64) {}

func installHooks(eng *sim.Engine) {
	// Observation-only literal: allowed.
	eng.SetHook(func(now sim.Tick, pending int) {
		_ = pending
	})
	// Mutating literal: flagged.
	eng.SetHook(func(now sim.Tick, pending int) {
		eng.Advance(now)                                  // want "state-mutating"
		eng.ScheduleArg(now, func(sim.Tick, any) {}, nil) // want "state-mutating"
	})
}

var _ = []any{globalEvents, installHooks}
