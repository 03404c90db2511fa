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
// device differences.
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

// bankState is one DRAM bank's FSM.
type bankState struct {
	openRow    int      // -1 when precharged
	readyAt    sim.Tick // row usable (post tRCD)
	busyUntil  sim.Tick // bank-level command block (ACT/PRE/refresh)
	rasUntil   sim.Tick // earliest allowed precharge (tRAS)
	writeUntil sim.Tick // write recovery gate for precharge
	colReady   sim.Tick // tCCD
}

// Config parameterizes the DRAM system.
type Config struct {
	Geom addr.Geometry // SAGs/CDs are ignored (a DRAM bank is monolithic here)
	Tim  Timings

	ReadQueueCap  int // default 32
	WriteQueueCap int // default 32
	WriteHighWM   int // default 3/4 cap
	WriteLowWM    int // default 1/4 cap

	Interleave addr.Interleave
}

func (c *Config) applyDefaults() {
	if c.ReadQueueCap == 0 {
		c.ReadQueueCap = 32
	}
	if c.WriteQueueCap == 0 {
		c.WriteQueueCap = 32
	}
	if c.WriteHighWM == 0 {
		c.WriteHighWM = c.WriteQueueCap * 3 / 4
	}
	if c.WriteLowWM == 0 {
		c.WriteLowWM = c.WriteQueueCap / 4
	}
}

// Stats aggregates observable behaviour.
type Stats struct {
	Reads        stats.Counter
	Writes       stats.Counter
	Activations  stats.Counter
	Precharges   stats.Counter
	RowHits      stats.Counter
	Refreshes    stats.Counter
	ReadLatency  stats.Distribution
	WriteLatency stats.Distribution
}

// System is the complete DRAM memory: queues, scheduler, banks,
// refresh. It implements cpu.MemorySystem.
type System struct {
	cfg    Config
	mapper *addr.Mapper
	eng    *sim.Engine

	banks   [][][]*bankState // [ch][rank][bank]
	busUse  []sim.Tick       // per channel
	readQ   []*mem.Queue
	writeQ  []*mem.Queue
	drain   []bool
	nextRef []sim.Tick // per channel: next refresh due

	inflight int
	st       Stats

	// Cached completion callbacks: one method value each instead of a
	// closure allocation per request.
	finishReadFn  sim.ArgEvent
	finishWriteFn sim.ArgEvent
}

// New builds the system.
func New(cfg Config, eng *sim.Engine) (*System, error) {
	cfg.applyDefaults()
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
	s.finishReadFn = s.finishReadEv
	s.finishWriteFn = s.finishWriteEv
	g := cfg.Geom
	s.banks = make([][][]*bankState, g.Channels)
	for ch := range s.banks {
		s.banks[ch] = make([][]*bankState, g.Ranks)
		for rk := range s.banks[ch] {
			s.banks[ch][rk] = make([]*bankState, g.Banks)
			for bk := range s.banks[ch][rk] {
				s.banks[ch][rk][bk] = &bankState{openRow: -1}
			}
		}
	}
	s.busUse = make([]sim.Tick, g.Channels)
	s.readQ = make([]*mem.Queue, g.Channels)
	s.writeQ = make([]*mem.Queue, g.Channels)
	s.drain = make([]bool, g.Channels)
	s.nextRef = make([]sim.Tick, g.Channels)
	for ch := range s.readQ {
		s.readQ[ch] = mem.NewQueue(cfg.ReadQueueCap)
		s.writeQ[ch] = mem.NewQueue(cfg.WriteQueueCap)
		s.nextRef[ch] = cfg.Tim.TREFI
	}
	return s, nil
}

// Stats returns the live statistics.
func (s *System) Stats() *Stats { return &s.st }

// Pending returns accepted-but-incomplete request count.
func (s *System) Pending() int { return s.inflight }

// Drained reports whether nothing is queued or in flight.
func (s *System) Drained() bool { return s.inflight == 0 }

// Enqueue accepts a request (cpu.MemorySystem).
func (s *System) Enqueue(r *mem.Request, now sim.Tick) bool {
	r.Loc = s.mapper.Decode(r.Addr)
	r.Arrive = now
	q := s.readQ[r.Loc.Channel]
	if r.Op == mem.Write {
		q = s.writeQ[r.Loc.Channel]
	}
	if !q.Push(r) {
		return false
	}
	s.inflight++
	return true
}

func (s *System) bankOf(r *mem.Request) *bankState {
	return s.banks[r.Loc.Channel][r.Loc.Rank][r.Loc.Bank]
}

// Cycle performs one controller cycle of scheduling and returns the
// number of commands issued (column reads/writes, precharges,
// activations and refreshes).
func (s *System) Cycle(now sim.Tick) int {
	issued := 0
	for ch := range s.readQ {
		if s.refresh(ch, now) {
			issued++
		}
		s.updateDrain(ch)
		if s.drain[ch] || s.writeQ[ch].Full() {
			if s.tryWrite(ch, now) || s.tryRead(ch, now) {
				issued++
			}
			continue
		}
		if s.tryRead(ch, now) || s.tryWrite(ch, now) {
			issued++
		}
	}
	return issued
}

// WouldAccept reports whether Enqueue(r) would succeed right now,
// without mutating anything (cpu.MemorySystem).
func (s *System) WouldAccept(r *mem.Request) bool {
	loc := s.mapper.Decode(r.Addr)
	if r.Op == mem.Write {
		return !s.writeQ[loc.Channel].Full()
	}
	return !s.readQ[loc.Channel].Full()
}

// NextWork returns the earliest tick strictly after now at which this
// system could issue a command, absent event-queue activity and new
// arrivals: the minimum flip tick of every predicate Cycle consults —
// bank timers of queued requests, bus releases offset by the tCAS/tCWD
// lookahead, and, unconditionally, the next refresh deadline (refresh
// fires on schedule even with empty queues, so a fast-forward may
// never jump across it).
func (s *System) NextWork(now sim.Tick) sim.Tick {
	next := sim.MaxTick
	consider := func(t sim.Tick) {
		if t > now && t < next {
			next = t
		}
	}
	for ch := range s.readQ {
		if s.cfg.Tim.TREFI > 0 {
			consider(s.nextRef[ch])
		}
		if s.readQ[ch].Empty() && s.writeQ[ch].Empty() {
			continue
		}
		for _, rank := range s.banks[ch] {
			for _, b := range rank {
				consider(b.readyAt)
				consider(b.busyUntil)
				consider(b.rasUntil)
				consider(b.writeUntil)
				consider(b.colReady)
			}
		}
		if s.busUse[ch] > now+s.cfg.Tim.TCAS {
			consider(s.busUse[ch] - s.cfg.Tim.TCAS)
		}
		if s.busUse[ch] > now+s.cfg.Tim.TCWD {
			consider(s.busUse[ch] - s.cfg.Tim.TCWD)
		}
	}
	return next
}

// SkipCycles credits skipped quiescent cycles. The DRAM model keeps no
// per-cycle counters and no telemetry, so there is nothing to credit.
func (s *System) SkipCycles(sim.Tick, uint64) {}

// SkipRejects credits skipped futile enqueue retries; rejections are
// unobservable here, so it is a no-op.
func (s *System) SkipRejects(*mem.Request, sim.Tick, uint64) {}

// refresh issues an all-bank refresh per rank when tREFI elapses: every
// bank of the channel is precharged and blocked for tRFC. This is the
// overhead NVM does not pay (Section 2: "Refresh must also occur
// periodically, while NVM ... has no need for refresh").
func (s *System) refresh(ch int, now sim.Tick) bool {
	if s.cfg.Tim.TREFI == 0 || now < s.nextRef[ch] {
		return false
	}
	until := now + s.cfg.Tim.TRFC
	for _, rank := range s.banks[ch] {
		for _, b := range rank {
			// Refresh waits for in-flight column work implicitly: we
			// conservatively push the block past any current busy time.
			if b.busyUntil > until {
				continue
			}
			b.openRow = -1
			b.busyUntil = until
			b.colReady = until
		}
	}
	s.nextRef[ch] = now + s.cfg.Tim.TREFI
	s.st.Refreshes.Inc()
	return true
}

func (s *System) updateDrain(ch int) {
	wq := s.writeQ[ch]
	if s.drain[ch] {
		if wq.Len() <= s.cfg.WriteLowWM {
			s.drain[ch] = false
		}
		return
	}
	if wq.Len() >= s.cfg.WriteHighWM {
		s.drain[ch] = true
	}
}

// tryRead issues one command for the read queue (FR-FCFS).
func (s *System) tryRead(ch int, now sim.Tick) bool {
	q := s.readQ[ch]
	// First ready: open-row hits with a free bus.
	for i := 0; i < q.Len(); i++ {
		r := q.At(i)
		b := s.bankOf(r)
		if b.openRow != r.Loc.Row || now < b.readyAt || now < b.colReady || now < b.busyUntil {
			continue
		}
		if s.busUse[ch] > now+s.cfg.Tim.TCAS {
			continue
		}
		b.colReady = now + s.cfg.Tim.TCCD
		done := now + s.cfg.Tim.TCAS + s.cfg.Tim.TBURST
		s.busUse[ch] = done
		if !r.Opened {
			s.st.RowHits.Inc()
		}
		q.Remove(i)
		s.finishRead(r, done)
		return true
	}
	// Then: activate (or precharge+activate) for the oldest miss.
	for i := 0; i < q.Len(); i++ {
		r := q.At(i)
		if s.openFor(r, now) {
			return true
		}
	}
	return false
}

// openFor moves r's bank toward having r's row open: precharge if a
// different row is open, else activate. Returns whether a command
// issued.
func (s *System) openFor(r *mem.Request, now sim.Tick) bool {
	b := s.bankOf(r)
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

func (s *System) finishRead(r *mem.Request, done sim.Tick) {
	s.eng.ScheduleArg(done, s.finishReadFn, r)
}

// finishReadEv is the scheduled read-completion callback (see
// finishReadFn).
func (s *System) finishReadEv(t sim.Tick, arg any) {
	r := arg.(*mem.Request)
	r.Finish(t)
	s.st.Reads.Inc()
	s.st.ReadLatency.Observe(float64(r.Latency()))
	s.inflight--
}

// finishWriteEv is the scheduled write-completion callback (see
// finishWriteFn).
func (s *System) finishWriteEv(t sim.Tick, arg any) {
	w := arg.(*mem.Request)
	w.Finish(t)
	s.st.Writes.Inc()
	s.st.WriteLatency.Observe(float64(w.Latency()))
	s.inflight--
}

// tryWrite issues one command for the write queue. DRAM writes go
// through the open row buffer like reads.
func (s *System) tryWrite(ch int, now sim.Tick) bool {
	q := s.writeQ[ch]
	for i := 0; i < q.Len(); i++ {
		w := q.At(i)
		b := s.bankOf(w)
		if b.openRow != w.Loc.Row || now < b.readyAt || now < b.colReady || now < b.busyUntil {
			continue
		}
		if s.busUse[ch] > now+s.cfg.Tim.TCWD {
			continue
		}
		b.colReady = now + s.cfg.Tim.TCCD
		dataEnd := now + s.cfg.Tim.TCWD + s.cfg.Tim.TBURST
		s.busUse[ch] = dataEnd
		done := dataEnd + s.cfg.Tim.TWR
		if done > b.writeUntil {
			b.writeUntil = done
		}
		q.Remove(i)
		s.eng.ScheduleArg(done, s.finishWriteFn, w)
		return true
	}
	for i := 0; i < q.Len(); i++ {
		w := q.At(i)
		if s.openFor(w, now) {
			return true
		}
	}
	return false
}
