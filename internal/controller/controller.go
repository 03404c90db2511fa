// Package controller implements the memory controller of the evaluation
// setup (Table 2): bounded read/write transaction queues, an FR-FCFS
// scheduler [20] (plus plain FCFS and the paper's augmented multi-issue
// FR-FCFS), write draining, shared data-bus arbitration, and per-bank
// command scheduling against the FgNVM conflict rules.
//
// One Controller instance manages every channel of the memory system.
// Channels are fully independent — own queues, own data bus, own banks —
// so all per-channel state lives in a shard struct, every scheduling
// decision is a shard method, and the Controller itself is a thin
// coordinator that routes requests and steps the shards in channel
// order.
package controller

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/invariant"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/timing"
)

// SchedulerKind selects the command scheduling policy.
type SchedulerKind int

const (
	// FRFCFS is first-ready first-come-first-serve: column-ready
	// requests are preferred over older requests that still need an
	// activation.
	FRFCFS SchedulerKind = iota
	// FCFS services strictly in arrival order.
	FCFS
)

func (s SchedulerKind) String() string {
	switch s {
	case FRFCFS:
		return "FRFCFS"
	case FCFS:
		return "FCFS"
	default:
		return fmt.Sprintf("SchedulerKind(%d)", int(s))
	}
}

// Config assembles the controller parameters. Zero values take the
// Table 2 defaults where one exists. The effective Config is frozen by
// applyDefaults inside New and never mutated afterwards.
type Config struct {
	Geom  addr.Geometry
	Tim   timing.Timings
	Modes core.AccessModes

	Scheduler  SchedulerKind
	IssueLanes int // commands per cycle and data-bus lanes; 1 = normal, >1 = Multi-Issue

	ReadQueueCap  int // Table 2: 32
	WriteQueueCap int // Table 2: 32
	// WriteDrivers is the number of bits programmed in parallel across
	// the rank. Table 2 lists 64 write drivers per device; with 8
	// devices per rank a 64-byte line programs in a single tWP pulse,
	// so the default is 512.
	WriteDrivers int

	// Write-drain watermarks used when Backgrounded Writes are off:
	// draining starts at high and stops at low.
	WriteHighWM int
	WriteLowWM  int

	Interleave addr.Interleave
	Energy     *energy.Model // optional

	// Telemetry, when non-nil, receives command spans from every bank
	// and request lifecycle events. Nil disables the event hooks; the
	// disabled path adds no allocations (guarded by a
	// testing.AllocsPerRun regression test).
	Telemetry telemetry.Sink

	// Attribution, when non-nil, is the one stall consumer. For each
	// cycle, or fast-forwarded window of n cycles, it gets one
	// Stall(cause, k·n) per cause that k > 0 queued requests share, and
	// rejected enqueue attempts as Stall(StallQueueFull, n). Stalls are
	// classified only when it is set.
	Attribution *telemetry.Attribution

	// EngineHook has no effect.
	EngineHook sim.Hook
}

func (c *Config) applyDefaults() {
	if c.IssueLanes == 0 {
		c.IssueLanes = 1
	}
	if c.ReadQueueCap == 0 {
		c.ReadQueueCap = 32
	}
	if c.WriteQueueCap == 0 {
		c.WriteQueueCap = 32
	}
	if c.WriteDrivers == 0 {
		c.WriteDrivers = 512
	}
	if c.WriteHighWM == 0 {
		c.WriteHighWM = c.WriteQueueCap * 3 / 4
	}
	if c.WriteLowWM == 0 {
		c.WriteLowWM = c.WriteQueueCap / 4
	}
}

// Stats aggregates the controller's observable behaviour over a run,
// summed over every channel.
type Stats struct {
	Reads            stats.Counter // read requests completed
	Writes           stats.Counter // write requests completed
	Activations      stats.Counter // activation commands issued
	ColumnReads      stats.Counter // column read commands issued
	SegmentHits      stats.Counter // reads whose segment was already open at first service
	BackgroundedRds  stats.Counter // reads issued while a write was in flight in the same bank
	WriteDrainEvents stats.Counter // transitions into drain mode
	ForwardedReads   stats.Counter // reads served from a queued write's data
	CoalescedWrites  stats.Counter // writes merged into a queued write to the same line
	// QueuedWaitCycles sums, over every cycle, the number of requests
	// still sitting in the read/write queues after that cycle's
	// scheduling — the denominator the stall-attribution engine must
	// conserve (each such request-cycle gets exactly one attributed
	// cause when telemetry is attached).
	QueuedWaitCycles stats.Counter
	WriteLatency     stats.Histogram
	ReadLatencyHist  stats.Histogram // log-bucketed, for percentile reporting
}

// Controller is the memory controller front-end: the CPU enqueues
// requests, the simulator calls Cycle once per controller clock, and
// completions fire through the sim engine. All per-channel scheduling
// state lives in the shards; the Controller holds construction-time
// wiring and the statistics every shard adds to.
type Controller struct {
	cfg    Config
	mapper *addr.Mapper
	eng    *sim.Engine
	tel    telemetry.Sink // event sink; nil when no one reads events

	shards []shard // one per channel, stepped in channel order

	inflight int
	st       Stats
}

// shard is one channel's complete scheduling state: queues, bus lanes,
// bank models and drain mode. Shards never reference each other.
type shard struct {
	cfg *Config // the effective (defaulted) configuration, frozen at New
	st  *Stats  // the Controller's statistics, shared by every shard
	eng *sim.Engine
	// tel and att are the Controller's event sink and stall consumer.
	tel telemetry.Sink
	att *telemetry.Attribution
	// finishFn is the completion callback, cached once as a
	// sim.ArgEvent method value so the per-request completion schedule
	// does not allocate a closure.
	finishFn sim.ArgEvent

	// banks holds the channel's bank models in rank-major order, so the
	// hot path resolves a request's bank with one multiply.
	banks []*core.Bank
	// cal is the release calendar every bank of the channel notes its
	// timer ticks in; channelNextWork reads the next bank release there.
	cal *core.Calendar
	// releases caches each bank's NextRelease for the fgnvm_invariants
	// check of cal (see nextBankFlip); 0 marks an entry stale. Nil in
	// the default build.
	releases []sim.Tick

	readQ  *mem.Queue
	writeQ *mem.Queue
	busUse []sim.Tick // per lane: busy until
	drain  bool       // write drain active (non-backgrounded mode)

	// hotCD[rank*banks+bank] is the CD of the bank's most recent column
	// read: streaming reads will keep hitting it, so opportunistic
	// writes avoid it (see writeClobbersPendingRead). -1 when unknown.
	hotCD []int

	// lastReadActive is the last tick the channel's read queue was
	// non-empty. Idle-time writes wait out a hysteresis window past it
	// so a one-cycle gap between read bursts doesn't invite a
	// CD-blocking write.
	lastReadActive sim.Tick

	// stalls memoizes the stall classification of the queued requests
	// bank by bank (see stallMemo). Nil unless Attribution is set.
	stalls *stallMemo
}

// idleWriteDelay is how many cycles the read queue must stay empty
// before non-forced writes may issue.
const idleWriteDelay = 64

// New validates cfg and builds the controller, its per-channel shards
// and their bank models.
func New(cfg Config, eng *sim.Engine) (*Controller, error) {
	cfg.applyDefaults()
	if eng == nil {
		return nil, fmt.Errorf("controller: nil engine")
	}
	if cfg.IssueLanes < 1 {
		return nil, fmt.Errorf("controller: IssueLanes = %d", cfg.IssueLanes)
	}
	if cfg.Scheduler != FRFCFS && cfg.Scheduler != FCFS {
		return nil, fmt.Errorf("controller: unknown scheduler %d", int(cfg.Scheduler))
	}
	if cfg.WriteLowWM > cfg.WriteHighWM {
		return nil, fmt.Errorf("controller: low watermark %d above high %d", cfg.WriteLowWM, cfg.WriteHighWM)
	}
	mapper, err := addr.NewMapper(cfg.Geom, cfg.Interleave)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:    cfg,
		mapper: mapper,
		eng:    eng,
		tel:    cfg.Telemetry,
	}
	finish := sim.ArgEvent(c.finish)
	g := cfg.Geom
	nb := g.Ranks * g.Banks
	c.shards = make([]shard, g.Channels)
	for ch := range c.shards {
		s := &c.shards[ch]
		s.cfg = &c.cfg
		s.st = &c.st
		s.eng = eng
		s.tel = cfg.Telemetry
		s.att = cfg.Attribution
		s.finishFn = finish
		s.banks = make([]*core.Bank, 0, nb)
		s.cal = core.NewCalendar()
		for rk := 0; rk < g.Ranks; rk++ {
			for bk := 0; bk < g.Banks; bk++ {
				b, err := core.NewBank(core.Config{
					Geom: g, Tim: cfg.Tim, Modes: cfg.Modes,
					Energy: cfg.Energy, WriteDrivers: cfg.WriteDrivers,
					Sink:     s.tel,
					ID:       telemetry.BankID{Channel: ch, Rank: rk, Bank: bk},
					Calendar: s.cal,
				})
				if err != nil {
					return nil, err
				}
				s.banks = append(s.banks, b)
			}
		}
		s.readQ = mem.NewQueue(cfg.ReadQueueCap)
		s.writeQ = mem.NewQueue(cfg.WriteQueueCap)
		s.busUse = make([]sim.Tick, cfg.IssueLanes)
		s.hotCD = make([]int, nb)
		for i := range s.hotCD {
			s.hotCD[i] = -1
		}
		if cfg.Attribution != nil {
			s.stalls = newStallMemo(nb, cfg.ReadQueueCap+cfg.WriteQueueCap)
		}
		if invariant.Enabled {
			s.releases = make([]sim.Tick, nb)
		}
	}
	return c, nil
}

// bankIndex flattens a request's (rank, bank) for the per-channel
// arrays and the flat bank slice.
func (s *shard) bankIndex(loc addr.Location) int {
	return loc.Rank*s.cfg.Geom.Banks + loc.Bank
}

// Config returns the effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns a snapshot of the statistics.
func (c *Controller) Stats() *Stats {
	out := c.st
	return &out
}

// Bank exposes a bank model, mainly for tests and reporting.
func (c *Controller) Bank(ch, rk, bk int) *core.Bank {
	return c.shards[ch].banks[rk*c.cfg.Geom.Banks+bk]
}

// Enqueue decodes and accepts a request, reporting false when the
// destination queue is full (backpressure: the caller must retry).
//
// Two standard controller shortcuts apply against the write queue:
// a read matching a queued write's line is served from the write's
// data next cycle (forwarding), and a write matching a queued write's
// line replaces it in place (coalescing) — the line will be programmed
// once, with the newest data.
func (c *Controller) Enqueue(r *mem.Request, now sim.Tick) bool {
	r.Loc = c.mapper.Decode(r.Addr)
	r.Arrive = now
	s := &c.shards[r.Loc.Channel]
	if !s.enqueue(r, now) {
		return false
	}
	c.inflight++
	return true
}

// enqueue is the per-channel half of Enqueue: forwarding, coalescing,
// queue admission and telemetry.
func (s *shard) enqueue(r *mem.Request, now sim.Tick) bool {
	q, merged := s.readQ, &s.st.ForwardedReads
	if r.Op == mem.Write {
		q, merged = s.writeQ, &s.st.CoalescedWrites
	}
	if s.queuedWrite(r.Addr) {
		// A read is forwarded the queued write's data, a write coalesces
		// into it; either completes next cycle without a queue slot.
		merged.Inc()
		if s.tel != nil {
			telRequest(s.tel, telemetry.ReqEnqueued, r, now)
		}
		s.issue(r, now)
		s.eng.ScheduleArg(now+1, s.finishFn, r)
		return true
	}
	if !q.Push(r) {
		if s.att != nil {
			s.att.Stall(telemetry.StallQueueFull, 1)
		}
		return false
	}
	s.pushed(r, now)
	if s.tel != nil {
		telRequest(s.tel, telemetry.ReqEnqueued, r, now)
	}
	return true
}

// issue marks r issued at now and emits ReqIssued, both only the first
// time: it reports whether this was r's first issue.
func (s *shard) issue(r *mem.Request, now sim.Tick) bool {
	if r.Issued() {
		return false
	}
	r.MarkIssued(now)
	if s.tel != nil {
		telRequest(s.tel, telemetry.ReqIssued, r, now)
	}
	return true
}

// telRequest emits one request lifecycle event to tel. Callers guard
// with a nil check to keep the disabled path branch-only.
func telRequest(tel telemetry.Sink, phase telemetry.RequestPhase, r *mem.Request, now sim.Tick) {
	tel.Request(telemetry.RequestEvent{
		Phase: phase, ID: r.ID, Write: r.Op == mem.Write, Loc: r.Loc, Now: now,
	})
}

// Pending returns the number of accepted but not yet completed requests.
func (c *Controller) Pending() int { return c.inflight }

// Drained reports whether no request is queued or in flight.
func (c *Controller) Drained() bool { return c.inflight == 0 }

// Cycle performs one controller clock of scheduling work across all
// channels and returns the number of commands issued (activations,
// column reads and writes). The caller must invoke it with strictly
// increasing ticks; a zero return with every core blocked is the run
// loop's licence to consider fast-forwarding (see NextWork). Each
// channel schedules, then accounts for the cycle; accounting after
// scheduling means a request that issued this cycle does not count
// this cycle. Background energy is not charged here: it depends only on
// the final tick, which the run loop charges once.
func (c *Controller) Cycle(now sim.Tick) int {
	issued := 0
	for ch := range c.shards {
		s := &c.shards[ch]
		issued += s.schedule(now)
		s.account(now, 1)
	}
	return issued
}

// account credits n waiting cycles to each request still queued after
// now's scheduling, classified as at now: queued-wait accounting and,
// when Attribution is set, stall attribution. The per-cycle path passes
// n = 1, the fast-forward path the width of a window over which
// NextWork's analysis has proved the queues and every classification
// constant. Each queued request-cycle gets exactly one cause, so the
// in-queue causes sum to QueuedWaitCycles — the conservation invariant
// the stall-attribution engine relies on.
func (s *shard) account(now sim.Tick, n uint64) {
	queued := s.readQ.Len() + s.writeQ.Len()
	if queued == 0 {
		return
	}
	s.st.QueuedWaitCycles.Add(uint64(queued) * n)
	if s.att != nil {
		s.attributeStalls(now, queued, n)
	}
}

// schedule issues this channel's commands for one controller clock.
func (s *shard) schedule(now sim.Tick) int {
	if !s.readQ.Empty() {
		s.lastReadActive = now
	}
	s.updateDrain()
	writesFirst := s.drain || s.writeQ.Full()
	// At most one write and one activation issue per cycle: programming
	// bandwidth is write-driver-limited and the row-decoder/latch path
	// handles one address per cycle. Extra issue lanes raise COLUMN
	// read throughput — the "multiple data returned via larger data
	// bus" of the paper's Multi-Issue mode — without letting bursts of
	// tile-blocking writes or segment-invalidating activations through.
	wrote, activated := false, false
	count := 0
	for lane := 0; lane < s.cfg.IssueLanes; lane++ {
		issued := false
		if writesFirst && !wrote {
			issued = s.tryIssueWrite(now)
			wrote = issued
		}
		if !issued {
			// While a write batch drains, reads ride along only on
			// already-open segments: starting new activations mid-drain
			// thrashes row latches against the writes.
			var didAct bool
			issued, didAct = s.tryIssueRead(now, !activated && !writesFirst)
			activated = activated || didAct
		}
		if !issued && !wrote {
			issued = s.tryIssueWrite(now)
			wrote = issued
		}
		if !issued {
			break
		}
		count++
	}
	return count
}

// updateDrain maintains the write-drain hysteresis: draining starts at
// the high watermark and runs down to the low watermark, so writes pay
// their tile-blocking cost in batches rather than one at a time in the
// middle of read bursts. With Backgrounded Writes the threshold is the
// full queue, whatever the geometry: the mode moves the watermark, not
// the number of tiles a write blocks. On a 1×1 bank a backgrounded
// write still blocks the whole bank, so there the later start is a
// drain-policy difference from the baseline, not tile parallelism (see
// DESIGN.md, "Write-drain watermark").
func (s *shard) updateDrain() {
	if s.drain {
		if s.writeQ.Len() <= s.cfg.WriteLowWM {
			s.drain = false
		}
		return
	}
	start := s.cfg.WriteHighWM
	if s.cfg.Modes.BackgroundedWrites {
		start = s.cfg.WriteQueueCap
	}
	if s.writeQ.Len() >= start {
		s.drain = true
		s.st.WriteDrainEvents.Inc()
	}
}

// busLaneFor returns a data-bus lane free for [start, start+tBURST), or
// -1 if none. Lanes are reserved monotonically; gaps are not backfilled.
func (s *shard) busLaneFor(start sim.Tick) int {
	for i, busy := range s.busUse {
		if busy <= start {
			return i
		}
	}
	return -1
}

func (s *shard) bankOf(r *mem.Request) *core.Bank {
	return s.banks[r.Loc.Rank*s.cfg.Geom.Banks+r.Loc.Bank]
}

// tryIssueRead issues at most one command (column read or, when
// mayActivate, an activation) on behalf of the read queue. It returns
// whether anything issued and whether that something was an activation.
func (s *shard) tryIssueRead(now sim.Tick, mayActivate bool) (bool, bool) {
	q := s.readQ
	if q.Empty() {
		return false, false
	}
	limit := q.Len()
	if s.cfg.Scheduler == FCFS {
		limit = 1
	}

	// First pass (the "first ready" of FR-FCFS): oldest request whose
	// segment is open and sensed. Bus admission depends only on now,
	// not the candidate, so the lane is resolved once: with no lane
	// free no column read can issue (column conflict: I/O lines busy)
	// and the pass is skipped.
	if lane := s.busLaneFor(now + s.cfg.Tim.TCAS); lane >= 0 {
		for i := 0; i < limit; i++ {
			r := q.At(i)
			b := s.bankOf(r)
			if b.CanRead(r.Loc.Row, r.Loc.Col, now) {
				s.issueColumnRead(r, b, lane, i, now)
				return true, false
			}
		}
	}

	if !mayActivate {
		return false, false
	}
	// Second pass: oldest request that can start its activation now,
	// as long as opening its row would not clobber a segment some other
	// queued read is about to use (anti-thrash guard).
	for i := 0; i < limit; i++ {
		r := q.At(i)
		b := s.bankOf(r)
		if !b.NeedsActivate(r.Loc.Row, r.Loc.Col, now) {
			continue // already sensed; waiting on bus or tCCD
		}
		if !b.CanActivate(r.Loc.Row, r.Loc.Col, now) {
			continue
		}
		if s.activationClobbers(q, i, r, b) {
			continue
		}
		if s.issue(r, now) {
			r.Opened = !b.SegmentOpen(r.Loc.Row, r.Loc.Col)
		}
		b.Activate(r.Loc.Row, r.Loc.Col, now)
		s.markBusy(s.bankIndex(r.Loc))
		s.st.Activations.Inc()
		return true, true
	}
	return false, false
}

// activationClobbers reports whether activating r's row would invalidate
// an open segment that an older queued read still needs — either by
// moving its SAG's row latch, or by re-sensing into its CD's shared
// bank-edge sense amplifiers. Only OLDER requests are protected: the
// oldest request is never blocked by this guard, which rules out
// livelock.
func (s *shard) activationClobbers(q *mem.Queue, self int, r *mem.Request, b *core.Bank) bool {
	sag := b.SAGOf(r.Loc.Row)
	cd := b.CDOf(r.Loc.Col)
	clobbers := false
	q.Scan(func(j int, other *mem.Request) bool {
		if j >= self {
			return false
		}
		if other.Loc.Channel != r.Loc.Channel ||
			other.Loc.Rank != r.Loc.Rank || other.Loc.Bank != r.Loc.Bank {
			return true
		}
		if other.Loc.Row == r.Loc.Row {
			return true // same row: activation helps rather than harms
		}
		ob := s.bankOf(other)
		if !ob.SegmentOpen(other.Loc.Row, other.Loc.Col) {
			return true
		}
		if ob.SAGOf(other.Loc.Row) == sag || ob.CDOf(other.Loc.Col) == cd {
			clobbers = true
			return false
		}
		return true
	})
	return clobbers
}

func (s *shard) issueColumnRead(r *mem.Request, b *core.Bank, lane, qi int, now sim.Tick) {
	s.issue(r, now) // first issue only if ready without us ever activating for it
	if !r.Opened {
		s.st.SegmentHits.Inc()
	}
	if b.WriteInFlight(now) {
		s.st.BackgroundedRds.Inc()
	}
	done := b.Read(r.Loc.Row, r.Loc.Col, now)
	bi := s.bankIndex(r.Loc)
	s.markBusy(bi)
	s.busUse[lane] = done // bus busy until the burst ends
	s.hotCD[bi] = b.CDOf(r.Loc.Col)
	s.st.ColumnReads.Inc()
	s.readQ.Remove(qi)
	s.removed(r)
	if s.tel != nil {
		s.busSpan(r, lane, now+s.cfg.Tim.TCAS, done)
	}
	s.eng.ScheduleArg(done, s.finishFn, r)
}

// busSpan emits the CmdBus span of r's data burst on lane, [start, end).
// Callers guard with a nil check of tel.
func (s *shard) busSpan(r *mem.Request, lane int, start, end sim.Tick) {
	s.tel.Command(telemetry.Command{
		Kind: telemetry.CmdBus,
		Bank: telemetry.BankID{Channel: r.Loc.Channel, Rank: r.Loc.Rank, Bank: r.Loc.Bank},
		CD:   lane, Row: r.Loc.Row, Col: r.Loc.Col, ReqID: r.ID,
		Start: start, End: end,
	})
}

// finish completes a request: it runs as a scheduled ArgEvent (see
// finishFn) with the request as its argument.
func (c *Controller) finish(t sim.Tick, arg any) {
	r := arg.(*mem.Request)
	r.Finish(t)
	if r.Op == mem.Write {
		c.st.Writes.Inc()
		c.st.WriteLatency.Observe(uint64(r.Latency()))
	} else {
		c.st.Reads.Inc()
		c.st.ReadLatencyHist.Observe(uint64(r.Latency()))
	}
	c.inflight--
	if c.tel != nil {
		telRequest(c.tel, telemetry.ReqCompleted, r, t)
	}
}

// tryIssueWrite issues at most one line write, returning whether one
// issued. Writes prefer targets that do not clobber segments pending
// reads rely on; when the queue is full or draining, the oldest legal
// write issues regardless.
func (s *shard) tryIssueWrite(now sim.Tick) bool {
	q := s.writeQ
	if q.Empty() {
		return false
	}
	limit := q.Len()
	if s.cfg.Scheduler == FCFS {
		limit = 1
	}
	// Backlog pressure: while drain mode is active, writes may no
	// longer be deferred just to keep tiles clear for reads.
	force := s.drain || q.Full()
	// A write blocks its CD for the whole programming time, so issuing
	// one while reads are waiting almost always delays them more than
	// the write gains. Writes therefore issue only under backlog
	// pressure or once the read queue has been idle for a hysteresis
	// window; Backgrounded Writes' benefit is that the write then
	// blocks one tile, not the bank.
	if !force && now < s.lastReadActive+idleWriteDelay {
		return false
	}
	// Bus admission depends only on now: with no lane free no write
	// can issue in either pass, so resolve the lane once.
	lane := s.busLaneFor(now + s.cfg.Tim.TCWD)
	if lane < 0 {
		return false // write data also crosses the shared bus
	}

	// The pick is the oldest legal write whose (SAG, CD) does not
	// collide with any queued read — "put the write where the reads are
	// not", the scheduling half of Backgrounded Writes. Under pressure
	// the oldest write that is merely legal, noted on the way, stands in.
	pick, legal := -1, -1
	for i := 0; i < limit && pick < 0; i++ {
		w := q.At(i)
		b := s.bankOf(w)
		if !b.CanWrite(w.Loc.Row, w.Loc.Col, now) {
			continue
		}
		if legal < 0 {
			legal = i
		}
		if !s.writeClobbersPendingRead(w, b) {
			pick = i
		}
	}
	if pick < 0 && force {
		pick = legal
	}
	if pick < 0 {
		return false
	}
	w := q.Remove(pick)
	s.removed(w)
	b := s.bankOf(w)
	done := b.Write(w.Loc.Row, w.Loc.Col, now)
	s.issue(w, now)
	s.markBusy(s.bankIndex(w.Loc))
	start := now + s.cfg.Tim.TCWD
	s.busUse[lane] = start + s.cfg.Tim.TBURST
	if s.tel != nil {
		s.busSpan(w, lane, start, s.busUse[lane])
	}
	s.eng.ScheduleArg(done, s.finishFn, w)
	return true
}

// WouldAccept reports whether Enqueue(r) would succeed right now,
// without performing it or mutating any state (r included). The CPU
// model uses it to decide whether a pending retry is provably futile —
// the admission half of the run loop's quiescence test.
func (c *Controller) WouldAccept(r *mem.Request) bool {
	loc := c.mapper.Decode(r.Addr)
	return c.shards[loc.Channel].wouldAccept(r)
}

// queuedWrite reports whether the write queue holds a write to the
// line of addr: a read of that line is forwarded from it, and a write
// to it coalesces into it. LineBytes is a power of two (see
// addr.Geometry.Validate), so two addresses share a line exactly when
// they differ only below it.
func (s *shard) queuedWrite(addr uint64) bool {
	lb := uint64(s.cfg.Geom.LineBytes)
	for i := 0; i < s.writeQ.Len(); i++ {
		if s.writeQ.At(i).Addr^addr < lb {
			return true
		}
	}
	return false
}

// wouldAccept is the per-channel admission test behind WouldAccept.
func (s *shard) wouldAccept(r *mem.Request) bool {
	if s.queuedWrite(r.Addr) {
		return true // forwarding (read) or coalescing (write) always admits
	}
	if r.Op == mem.Read {
		return !s.readQ.Full()
	}
	return !s.writeQ.Full()
}

// NextWork returns the earliest tick strictly after now at which the
// controller could possibly issue a command or change a scheduling
// decision, assuming no new arrivals and no event-queue activity before
// then — the controller's contribution to the run loop's fast-forward
// target. sim.MaxTick means "never" (all queues empty).
//
// The result is the minimum over every tick at which a predicate
// consulted by schedule or the stall classifiers can change its answer:
// bank timer expiries (read from the channel's core.Calendar, which is
// at or below the least core.Bank.NextRelease), shared-bus lane
// releases offset by the tCAS/tCWD admission lookahead, and the
// idle-write hysteresis deadline. Every such predicate compares now
// against exactly one of these values, so in the open window before
// the returned tick the controller's admissible-command set, its stall
// classifications and its per-cycle counter increments are all
// provably constant. A calendar tick below the true next release only
// shortens the window. Probes must come at non-decreasing ticks, as
// the run loop's do.
func (c *Controller) NextWork(now sim.Tick) sim.Tick {
	next := sim.MaxTick
	for ch := range c.shards {
		if t := c.shards[ch].channelNextWork(now); t < next {
			next = t
		}
	}
	return next
}

// channelNextWork is NextWork restricted to this channel: the earliest
// tick strictly after now at which any of the channel's scheduling
// predicates can change, or sim.MaxTick when both queues are empty.
// Bank timer expiries come from nextBankFlip.
func (s *shard) channelNextWork(now sim.Tick) sim.Tick {
	if s.readQ.Empty() && s.writeQ.Empty() {
		return sim.MaxTick
	}
	next := s.nextBankFlip(now)
	consider := func(t sim.Tick) {
		if t > now && t < next {
			next = t
		}
	}
	for _, busy := range s.busUse {
		// Bus admission tests are busy <= t+tCAS (reads) and
		// busy <= t+tCWD (writes): they change at busy-tCAS and
		// busy-tCWD. Guarded subtractions avoid uint underflow.
		if busy > now+s.cfg.Tim.TCAS {
			consider(busy - s.cfg.Tim.TCAS)
		}
		if busy > now+s.cfg.Tim.TCWD {
			consider(busy - s.cfg.Tim.TCWD)
		}
	}
	if s.readQ.Empty() && !s.writeQ.Empty() {
		// Non-forced writes wait out the idle hysteresis window;
		// its deadline counts only while no reads keep pushing
		// lastReadActive forward.
		consider(s.lastReadActive + idleWriteDelay)
	}
	return next
}

// nextBankFlip returns the channel calendar's next tick: at or below
// the least NextRelease over the channel's banks (see core.Calendar).
// The fgnvm_invariants build checks that bound at every probe against
// the bank timers themselves. A bank's NextRelease holds until now
// reaches it or a command resets the bank (markBusy), so each bank's
// timers are rescanned only then.
func (s *shard) nextBankFlip(now sim.Tick) sim.Tick {
	next := s.cal.Next(now)
	if invariant.Enabled {
		all := sim.MaxTick
		for i, b := range s.banks {
			if now >= s.releases[i] {
				s.releases[i] = b.NextRelease(now)
			}
			all = min(all, s.releases[i])
		}
		if next > all { // guarded so the passing probe stays allocation-free
			invariant.Assertf(false, "calendar says the next bank release after tick %d is %d, but the timers of its %d banks give %d",
				now, next, len(s.banks), all)
		}
	}
	return next
}

// SkipCycles batch-credits n skipped controller cycles (ticks now+1
// through now+n) during a fast-forward window. The caller guarantees
// the window is quiescent: Cycle(now) issued nothing, no event fires
// before now+n+1, and no enqueue succeeds in the window — under which
// NextWork's analysis proves every scheduling predicate and
// stall classification equal to its value at now throughout. The
// per-cycle work therefore reduces to multiplication: each channel's
// account credits its queued requests with weight n. Background
// energy needs no crediting here: it is charged once, from the final
// tick.
func (c *Controller) SkipCycles(now sim.Tick, n uint64) {
	if n == 0 {
		return
	}
	for ch := range c.shards {
		c.shards[ch].account(now, n)
	}
}

// SkipRejects batch-credits n futile enqueue retries of r (one per
// skipped tick): the reference loop would have re-attempted Enqueue
// each cycle and attributed one StallQueueFull cycle per rejection.
// The caller guarantees WouldAccept(r) is false for the whole window.
// Only Attribution observes rejections, so without it this is a no-op.
func (c *Controller) SkipRejects(r *mem.Request, now sim.Tick, n uint64) {
	if n == 0 || c.cfg.Attribution == nil {
		return
	}
	c.cfg.Attribution.Stall(telemetry.StallQueueFull, n)
}

// writeClobbersPendingRead reports whether issuing w would invalidate a
// sensed segment that some queued read is waiting to use, or would
// occupy the (SAG, CD) a queued read needs next. Avoiding such writes is
// the scheduling half of Backgrounded Writes: put the write where the
// reads are not.
func (s *shard) writeClobbersPendingRead(w *mem.Request, b *core.Bank) bool {
	sag := b.SAGOf(w.Loc.Row)
	cd := b.CDOf(w.Loc.Col)
	if s.readQ.Empty() {
		return false // no reads to disturb
	}
	if s.hotCD[s.bankIndex(w.Loc)] == cd {
		return true // streaming reads are working through this CD now
	}
	clash := false
	s.readQ.Scan(func(_ int, r *mem.Request) bool {
		if r.Loc.Rank != w.Loc.Rank || r.Loc.Bank != w.Loc.Bank {
			return true
		}
		rb := s.bankOf(r)
		if rb.SAGOf(r.Loc.Row) == sag || rb.CDOf(r.Loc.Col) == cd {
			clash = true
			return false
		}
		return true
	})
	return clash
}
