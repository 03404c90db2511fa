// Package dram implements a conventional DDR3-style DRAM memory system,
// the reference point for Section 2's framing: DRAM reads are
// destructive (rows must be restored before precharge, tRAS), opening a
// new row requires a precharge first (tRP), and the cells must be
// refreshed periodically (tREFI/tRFC) — none of which applies to the
// paper's NVM. The package exists so the repository can quantify the
// DRAM↔PCM latency gap and how much of it FgNVM's tile-level
// parallelism buys back.
//
// The model is a classic open-page bank state machine with an FR-FCFS
// scheduler, all-bank refresh, and a shared data bus — deliberately the
// same controller structure as the NVM side so comparisons isolate the
// device differences. Unlike the NVM controller it offers the run loop
// no fast-forward: its commands come too densely for a jump to pay, so
// NextWork always answers the next cycle.
package dram

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Timings holds DDR-style parameters in controller cycles. The default
// set (DDR3-1600-like values expressed at the simulator's 400 MHz
// controller clock, tCK = 2.5 ns) comes from Defaults.
type Timings struct {
	TRCD   sim.Tick // activate → column command (13.75 ns → 6)
	TCAS   sim.Tick // column read → data        (13.75 ns → 6)
	TRP    sim.Tick // precharge                 (13.75 ns → 6)
	TRAS   sim.Tick // activate → precharge min  (35 ns → 14)
	TWR    sim.Tick // write recovery            (15 ns → 6)
	TCWD   sim.Tick // write command → data      (7.5 ns → 3)
	TCCD   sim.Tick // column → column           (4)
	TBURST sim.Tick // burst                     (4)
	TREFI  sim.Tick // refresh interval          (7.8 µs → 3120)
	TRFC   sim.Tick // refresh duration          (260 ns → 104)
}

// Defaults returns DDR3-1600-like timings at the 400 MHz controller
// clock used throughout the repository.
func Defaults() Timings {
	return Timings{
		TRCD: 6, TCAS: 6, TRP: 6, TRAS: 14,
		TWR: 6, TCWD: 3, TCCD: 4, TBURST: 4,
		TREFI: 3120, TRFC: 104,
	}
}

// Validate checks the parameter set.
func (t Timings) Validate() error {
	if t.TBURST == 0 || t.TRCD == 0 || t.TCAS == 0 {
		return fmt.Errorf("dram: zero core timing in %+v", t)
	}
	if t.TREFI > 0 && t.TRFC == 0 {
		return fmt.Errorf("dram: refresh interval without duration")
	}
	return nil
}

// Table 2's transaction queues, as on the NVM side: 32 reads and 32
// writes per channel, with writes drained from 3/4 full down to 1/4.
const (
	queueCap    = 32
	writeHighWM = queueCap * 3 / 4
	writeLowWM  = queueCap / 4
)

// bankState is one DRAM bank's FSM.
type bankState struct {
	openRow    int      // -1 when precharged
	readyAt    sim.Tick // row usable (post tRCD)
	busyUntil  sim.Tick // bank-level command block (ACT/PRE/refresh)
	rasUntil   sim.Tick // earliest allowed precharge (tRAS)
	writeUntil sim.Tick // write recovery gate for precharge
	colReady   sim.Tick // tCCD
}

// channel is one channel's scheduling state.
type channel struct {
	readQ, writeQ mem.Queue
	busUse        sim.Tick // data bus busy until
	drain         bool     // write drain active
	nextRef       sim.Tick // next refresh due
	// banks holds the channel's banks in rank-major order, so a
	// request's bank is one multiply-add away (see System.bankOf).
	banks []bankState
}

// Config parameterizes the DRAM system.
type Config struct {
	Geom       addr.Geometry // SAGs/CDs are ignored (a DRAM bank is monolithic here)
	Tim        Timings
	Interleave addr.Interleave
}

// Stats aggregates observable behaviour.
type Stats struct {
	Reads        stats.Counter
	Writes       stats.Counter
	Activations  stats.Counter
	Precharges   stats.Counter
	RowHits      stats.Counter
	Refreshes    stats.Counter
	ReadLatency  stats.Histogram
	WriteLatency stats.Histogram
}

// System is the complete DRAM memory: queues, scheduler, banks,
// refresh. It implements cpu.MemorySystem.
type System struct {
	cfg    Config
	mapper *addr.Mapper
	eng    *sim.Engine
	chans  []channel

	inflight int
	st       Stats

	// finishFn is the completion callback, cached once as a method
	// value instead of a closure allocation per request.
	finishFn sim.ArgEvent
}

// New builds the system.
func New(cfg Config, eng *sim.Engine) (*System, error) {
	if eng == nil {
		return nil, fmt.Errorf("dram: nil engine")
	}
	if err := cfg.Tim.Validate(); err != nil {
		return nil, err
	}
	mapper, err := addr.NewMapper(cfg.Geom, cfg.Interleave)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, mapper: mapper, eng: eng}
	s.finishFn = s.finish
	g := cfg.Geom
	perChan := g.Ranks * g.Banks
	banks := make([]bankState, g.Channels*perChan)
	for i := range banks {
		banks[i].openRow = -1
	}
	s.chans = make([]channel, g.Channels)
	for i := range s.chans {
		s.chans[i] = channel{
			readQ:   *mem.NewQueue(queueCap),
			writeQ:  *mem.NewQueue(queueCap),
			nextRef: cfg.Tim.TREFI,
			banks:   banks[i*perChan : (i+1)*perChan : (i+1)*perChan],
		}
	}
	return s, nil
}

// Stats returns the live statistics.
func (s *System) Stats() *Stats { return &s.st }

// Pending returns accepted-but-incomplete request count.
func (s *System) Pending() int { return s.inflight }

// Drained reports whether nothing is queued or in flight.
func (s *System) Drained() bool { return s.inflight == 0 }

// queueFor returns the queue an op of r joins on channel c.
func queueFor(c *channel, r *mem.Request) *mem.Queue {
	if r.Op == mem.Write {
		return &c.writeQ
	}
	return &c.readQ
}

// Enqueue accepts a request (cpu.MemorySystem).
func (s *System) Enqueue(r *mem.Request, now sim.Tick) bool {
	r.Loc = s.mapper.Decode(r.Addr)
	r.Arrive = now
	if !queueFor(&s.chans[r.Loc.Channel], r).Push(r) {
		return false
	}
	s.inflight++
	return true
}

// WouldAccept reports whether Enqueue(r) would succeed right now,
// without mutating anything (cpu.MemorySystem).
func (s *System) WouldAccept(r *mem.Request) bool {
	loc := s.mapper.Decode(r.Addr)
	return !queueFor(&s.chans[loc.Channel], r).Full()
}

func (s *System) bankOf(c *channel, loc addr.Location) *bankState {
	return &c.banks[loc.Rank*s.cfg.Geom.Banks+loc.Bank]
}

// Cycle performs one controller cycle of scheduling and returns the
// number of commands issued (column reads/writes, precharges,
// activations and refreshes).
func (s *System) Cycle(now sim.Tick) int {
	issued := 0
	for i := range s.chans {
		c := &s.chans[i]
		if s.refresh(c, now) {
			issued++
		}
		// Drain hysteresis: start at the high watermark, stop at the low.
		n := c.writeQ.Len()
		c.drain = n >= writeHighWM || c.drain && n > writeLowWM
		first, second := &c.readQ, &c.writeQ
		if c.drain || c.writeQ.Full() {
			first, second = second, first
		}
		if s.issue(c, first, now) || s.issue(c, second, now) {
			issued++
		}
	}
	return issued
}

// NextWork returns now+1, so a DRAM run never jumps and the run loop
// steps it cycle by cycle. Its commands are dense: an access takes a
// separate precharge, activation and column command, and a probe of
// the bank timers, bus and refresh deadline found jumps of 1.9 cycles
// on average, which cost as much wall time as they skipped.
func (s *System) NextWork(now sim.Tick) sim.Tick {
	return now + 1
}

// SkipCycles would credit skipped cycles, but DRAM never jumps (see
// NextWork): the run loop's memDevice interface requires the method.
func (s *System) SkipCycles(sim.Tick, uint64) {}

// SkipRejects is a no-op for the same reason as SkipCycles.
func (s *System) SkipRejects(*mem.Request, sim.Tick, uint64) {}

// refresh issues an all-bank refresh per rank when tREFI elapses: every
// bank of the channel is precharged and blocked for tRFC. This is the
// overhead NVM does not pay (Section 2: "Refresh must also occur
// periodically, while NVM ... has no need for refresh").
func (s *System) refresh(c *channel, now sim.Tick) bool {
	if s.cfg.Tim.TREFI == 0 || now < c.nextRef {
		return false
	}
	until := now + s.cfg.Tim.TRFC
	for i := range c.banks {
		b := &c.banks[i]
		// Refresh waits for in-flight column work implicitly: we
		// conservatively push the block past any current busy time.
		if b.busyUntil > until {
			continue
		}
		b.openRow = -1
		b.busyUntil = until
		b.colReady = until
	}
	c.nextRef = now + s.cfg.Tim.TREFI
	s.st.Refreshes.Inc()
	return true
}

// issue makes one FR-FCFS pass over q, c's read or write queue, and
// issues at most one command. First ready: the oldest request whose row
// is open and ready gets its column command. Bus admission depends only
// on now, not the candidate, so it is resolved once: with the bus busy
// past the tCAS (read) or tCWD (write) lead no column command can issue
// and that search is skipped. Otherwise the oldest request whose bank
// accepts it gets a precharge or activation (openFor). DRAM writes go
// through the open row buffer like reads.
func (s *System) issue(c *channel, q *mem.Queue, now sim.Tick) bool {
	tim := &s.cfg.Tim
	write := q == &c.writeQ
	lead := tim.TCAS
	if write {
		lead = tim.TCWD
	}
	if c.busUse <= now+lead {
		for i := 0; i < q.Len(); i++ {
			r := q.At(i)
			b := s.bankOf(c, r.Loc)
			if b.openRow != r.Loc.Row || now < b.readyAt || now < b.colReady || now < b.busyUntil {
				continue
			}
			b.colReady = now + tim.TCCD
			c.busUse = now + lead + tim.TBURST
			done := c.busUse
			if write {
				done += tim.TWR
				b.writeUntil = max(b.writeUntil, done)
			} else if !r.Opened {
				s.st.RowHits.Inc()
			}
			q.Remove(i)
			s.eng.ScheduleArg(done, s.finishFn, r)
			return true
		}
	}
	for i := 0; i < q.Len(); i++ {
		if s.openFor(c, q.At(i), now) {
			return true
		}
	}
	return false
}

// openFor moves r's bank toward having r's row open: precharge if a
// different row is open, else activate. Returns whether a command
// issued.
func (s *System) openFor(c *channel, r *mem.Request, now sim.Tick) bool {
	b := s.bankOf(c, r.Loc)
	if now < b.busyUntil {
		return false
	}
	if b.openRow == r.Loc.Row {
		return false // already open (waiting on readyAt/bus)
	}
	if b.openRow != -1 {
		// Destructive reads mean the row must be restored before it can
		// close: precharge only after tRAS and write recovery.
		if now < b.rasUntil || now < b.writeUntil {
			return false
		}
		b.openRow = -1
		b.busyUntil = now + s.cfg.Tim.TRP
		s.st.Precharges.Inc()
		r.Opened = true
		return true
	}
	r.Opened = true
	b.openRow = r.Loc.Row
	b.readyAt = now + s.cfg.Tim.TRCD
	b.busyUntil = b.readyAt
	b.rasUntil = now + s.cfg.Tim.TRAS
	s.st.Activations.Inc()
	return true
}

// finish is the scheduled completion callback (see finishFn).
func (s *System) finish(t sim.Tick, arg any) {
	r := arg.(*mem.Request)
	r.Finish(t)
	if r.Op == mem.Write {
		s.st.Writes.Inc()
		s.st.WriteLatency.Observe(uint64(r.Latency()))
	} else {
		s.st.Reads.Inc()
		s.st.ReadLatency.Observe(uint64(r.Latency()))
	}
	s.inflight--
}
