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

	// Telemetry, when non-nil, receives command spans from every bank,
	// request lifecycle events, and one stall-attribution event per
	// queued request per cycle (see internal/telemetry). Nil disables
	// all hooks; the disabled path adds no allocations (guarded by a
	// testing.AllocsPerRun regression test).
	Telemetry telemetry.Sink

	// DisableIndex forces the reference scheduling path: every cycle
	// re-walks the queues and re-evaluates the SAG×CD conflict rules
	// from scratch, with no per-channel ready memo and no tile candidate
	// counts. Results are identical either way (pinned by a differential
	// test across every benchmark × design); the indexed path is only an
	// execution-speed optimization.
	DisableIndex bool

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

// Stats aggregates the controller's observable behaviour over a run.
// Completion-side aggregates (Reads, Writes, the latency distributions)
// accumulate engine-side, where completion events fire; everything a
// scheduling decision increments lives in the per-channel shardStats
// and is merged — exactly, counter by uint64 counter — into the
// snapshot Stats() returns.
type Stats struct {
	Reads            stats.Counter // read requests completed
	Writes           stats.Counter // write requests completed
	Activations      stats.Counter // activation commands issued
	ColumnReads      stats.Counter // column read commands issued
	SegmentHits      stats.Counter // reads whose segment was already open at first service
	BackgroundedRds  stats.Counter // reads issued while a write was in flight in the same bank
	WriteDrainEvents stats.Counter // transitions into drain mode
	BusStallCycles   stats.Counter // issuable column reads blocked only by the data bus
	ForwardedReads   stats.Counter // reads served from a queued write's data
	CoalescedWrites  stats.Counter // writes merged into a queued write to the same line
	// QueuedWaitCycles sums, over every cycle, the number of requests
	// still sitting in the read/write queues after that cycle's
	// scheduling — the denominator the stall-attribution engine must
	// conserve (each such request-cycle gets exactly one attributed
	// cause when telemetry is attached).
	QueuedWaitCycles stats.Counter
	ReadLatency      stats.Distribution
	WriteLatency     stats.Distribution
	ReadLatencyHist  stats.Histogram // log-bucketed, for percentile reporting
}

// shardStats holds the counters a single channel's scheduling maintains.
// Stats() merges them by addition, which is exact for uint64 event
// counts.
type shardStats struct {
	activations      stats.Counter
	columnReads      stats.Counter
	segmentHits      stats.Counter
	backgroundedRds  stats.Counter
	writeDrainEvents stats.Counter
	busStallCycles   stats.Counter
	forwardedReads   stats.Counter
	coalescedWrites  stats.Counter
	queuedWaitCycles stats.Counter
}

// Controller is the memory controller front-end: the CPU enqueues
// requests, the simulator calls Cycle once per controller clock, and
// completions fire through the sim engine. All per-channel state lives
// in the shards; the Controller holds only construction-time wiring and
// the engine-side aggregates completion events touch.
type Controller struct {
	cfg    Config
	mapper *addr.Mapper
	eng    *sim.Engine
	tel    telemetry.Sink // nil when telemetry is off

	shards []shard // one per channel, stepped in channel order

	inflight int
	st       Stats
}

// shard is one channel's complete scheduling state: queues, bus lanes,
// bank models, drain mode, the indexed-scheduling acceleration state and
// the per-channel statistics. Shards never reference each other.
//
// The ready memo caches the outcome of a cycle that issued nothing:
// until memoUntil — the channel's next scheduling flip tick, computed by
// the same analysis that licenses fast-forward (see NextWork) — no
// predicate schedule consults can change unless a new request arrives,
// so subsequent cycles skip the scans entirely and replay the memoized
// per-cycle counter increment (memoBusStalls). enqueue invalidates the
// memo; issuing anything rebuilds controller state, so a memo is only
// ever armed by a cycle that issued nothing.
//
// The tile candidate index counts queued reads per (rank,bank), per
// (rank,bank,SAG) and per (rank,bank,CD), maintained at push/remove.
// Membership is pure queue membership — no timing state — so the counts
// make the §4 clobber guards O(1): a write clobbers a pending read iff
// its SAG or CD count is non-zero, and an activation needs the
// older-request scan only when some other queued read shares its bank
// and tile coordinates.
type shard struct {
	cfg     *Config // the effective (defaulted) configuration, frozen at New
	indexed bool    // !cfg.DisableIndex
	eng     *sim.Engine
	tel     telemetry.Sink
	// finishReadFn/finishWriteFn are the completion callbacks, cached
	// once as sim.ArgEvent method values so the per-request completion
	// schedule does not allocate a closure.
	finishReadFn  sim.ArgEvent
	finishWriteFn sim.ArgEvent

	// banks holds the channel's bank models in rank-major order, so the
	// hot path resolves a request's bank with one multiply.
	banks []*core.Bank

	readQ   *mem.Queue
	writeQ  *mem.Queue
	busUse  []sim.Tick // per lane: busy until
	drain   bool       // write drain active (non-backgrounded mode)
	hitSeen map[*mem.Request]bool

	// hotCD[rank*banks+bank] is the CD of the bank's most recent column
	// read: streaming reads will keep hitting it, so opportunistic
	// writes avoid it (see writeClobbersPendingRead). -1 when unknown.
	hotCD []int

	// lastReadActive is the last tick the channel's read queue was
	// non-empty. Idle-time writes wait out a hysteresis window past it
	// so a one-cycle gap between read bursts doesn't invite a
	// CD-blocking write.
	lastReadActive sim.Tick

	memoValid     bool
	memoUntil     sim.Tick
	memoBusStalls int

	bankReads []int32 // [rank*banks+bank]: queued reads per bank
	sagReads  []int32 // [(rank*banks+bank)*SAGs+sag]
	cdReads   []int32 // [(rank*banks+bank)*CDs+cd]

	st shardStats
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
	finishRead := sim.ArgEvent(c.finishRead)
	finishWrite := sim.ArgEvent(c.finishWrite)
	g := cfg.Geom
	nb := g.Ranks * g.Banks
	c.shards = make([]shard, g.Channels)
	for ch := range c.shards {
		s := &c.shards[ch]
		s.cfg = &c.cfg
		s.indexed = !cfg.DisableIndex
		s.eng = eng
		s.tel = cfg.Telemetry
		s.finishReadFn = finishRead
		s.finishWriteFn = finishWrite
		s.banks = make([]*core.Bank, 0, nb)
		for rk := 0; rk < g.Ranks; rk++ {
			for bk := 0; bk < g.Banks; bk++ {
				b, err := core.NewBank(core.Config{
					Geom: g, Tim: cfg.Tim, Modes: cfg.Modes,
					Energy: cfg.Energy, WriteDrivers: cfg.WriteDrivers,
					Sink: s.tel,
					ID:   telemetry.BankID{Channel: ch, Rank: rk, Bank: bk},
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
		s.hitSeen = make(map[*mem.Request]bool)
		s.hotCD = make([]int, nb)
		for i := range s.hotCD {
			s.hotCD[i] = -1
		}
		if s.indexed {
			s.bankReads = make([]int32, nb)
			s.sagReads = make([]int32, nb*g.SAGs)
			s.cdReads = make([]int32, nb*g.CDs)
		}
	}
	return c, nil
}

// bankIndex flattens a request's (rank, bank) for the per-channel
// index arrays and the flat bank slice.
func (s *shard) bankIndex(loc addr.Location) int {
	return loc.Rank*s.cfg.Geom.Banks + loc.Bank
}

// noteReadQueued maintains the tile candidate counts when r enters the
// read queue. Tile coordinates use the same mapping as core.Bank
// (row % SAGs, col % CDs), which is uniform across banks.
func (s *shard) noteReadQueued(r *mem.Request) {
	bi := s.bankIndex(r.Loc)
	s.bankReads[bi]++
	s.sagReads[bi*s.cfg.Geom.SAGs+r.Loc.Row%s.cfg.Geom.SAGs]++
	s.cdReads[bi*s.cfg.Geom.CDs+r.Loc.Col%s.cfg.Geom.CDs]++
}

// noteReadDequeued reverses noteReadQueued when r leaves the queue.
func (s *shard) noteReadDequeued(r *mem.Request) {
	bi := s.bankIndex(r.Loc)
	s.bankReads[bi]--
	s.sagReads[bi*s.cfg.Geom.SAGs+r.Loc.Row%s.cfg.Geom.SAGs]--
	s.cdReads[bi*s.cfg.Geom.CDs+r.Loc.Col%s.cfg.Geom.CDs]--
}

// Config returns the effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns a snapshot of the statistics: the engine-side aggregates
// plus the per-channel counters merged by addition. Counters are uint64
// event counts, so the merge is exact and independent of channel order.
func (c *Controller) Stats() *Stats {
	out := c.st
	for i := range c.shards {
		s := &c.shards[i]
		out.Activations.Add(s.st.activations.Value())
		out.ColumnReads.Add(s.st.columnReads.Value())
		out.SegmentHits.Add(s.st.segmentHits.Value())
		out.BackgroundedRds.Add(s.st.backgroundedRds.Value())
		out.WriteDrainEvents.Add(s.st.writeDrainEvents.Value())
		out.BusStallCycles.Add(s.st.busStallCycles.Value())
		out.ForwardedReads.Add(s.st.forwardedReads.Value())
		out.CoalescedWrites.Add(s.st.coalescedWrites.Value())
		out.QueuedWaitCycles.Add(s.st.queuedWaitCycles.Value())
	}
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
// queue admission, index maintenance and telemetry.
func (s *shard) enqueue(r *mem.Request, now sim.Tick) bool {
	line := r.Addr / uint64(s.cfg.Geom.LineBytes)

	if r.Op == mem.Read {
		hit := false
		s.writeQ.Scan(func(_ int, w *mem.Request) bool {
			if w.Addr/uint64(s.cfg.Geom.LineBytes) == line {
				hit = true
				return false
			}
			return true
		})
		if hit {
			r.MarkIssued(now)
			s.st.forwardedReads.Inc()
			if s.tel != nil {
				s.telRequest(telemetry.ReqEnqueued, r, now)
				s.telRequest(telemetry.ReqIssued, r, now)
			}
			s.eng.ScheduleArg(now+1, s.finishReadFn, r)
			return true
		}
		if !s.readQ.Push(r) {
			if s.tel != nil {
				s.telStallQueueFull(r, now)
			}
			return false
		}
		if s.indexed {
			s.noteReadQueued(r)
			s.memoValid = false
			if invariant.Enabled {
				s.verifyIndex()
			}
		}
		if s.tel != nil {
			s.telRequest(telemetry.ReqEnqueued, r, now)
		}
		return true
	}

	// Write path: coalesce into an existing write to the same line.
	merged := false
	s.writeQ.Scan(func(_ int, w *mem.Request) bool {
		if w.Addr/uint64(s.cfg.Geom.LineBytes) == line {
			merged = true
			return false
		}
		return true
	})
	if merged {
		r.MarkIssued(now)
		s.st.coalescedWrites.Inc()
		if s.tel != nil {
			s.telRequest(telemetry.ReqEnqueued, r, now)
			s.telRequest(telemetry.ReqIssued, r, now)
		}
		s.eng.ScheduleArg(now+1, s.finishWriteFn, r)
		return true
	}
	if !s.writeQ.Push(r) {
		if s.tel != nil {
			s.telStallQueueFull(r, now)
		}
		return false
	}
	if s.indexed {
		// A new write can flip drain state and the candidate set.
		s.memoValid = false
	}
	if s.tel != nil {
		s.telRequest(telemetry.ReqEnqueued, r, now)
	}
	return true
}

// telRequest emits one request lifecycle event. Callers guard with an
// s.tel nil check to keep the disabled path branch-only.
func (s *shard) telRequest(phase telemetry.RequestPhase, r *mem.Request, now sim.Tick) {
	s.tel.Request(telemetry.RequestEvent{
		Phase: phase, ID: r.ID, Write: r.Op == mem.Write,
		Loc: r.Loc, Now: now, Arrive: r.Arrive,
	})
}

// telStallQueueFull attributes one rejected enqueue attempt. The
// request is not in a queue, so these cycles sit outside the
// queued-wait conservation sum.
func (s *shard) telStallQueueFull(r *mem.Request, now sim.Tick) {
	s.tel.Stall(telemetry.StallEvent{
		ReqID: r.ID, Write: r.Op == mem.Write, Loc: r.Loc,
		Cause: telemetry.StallQueueFull, Now: now,
	})
}

// Pending returns the number of accepted but not yet completed requests.
func (c *Controller) Pending() int { return c.inflight }

// Drained reports whether no request is queued or in flight.
func (c *Controller) Drained() bool { return c.inflight == 0 }

// ReadQueueLen returns the read queue depth for a channel.
func (c *Controller) ReadQueueLen(ch int) int { return c.shards[ch].readQ.Len() }

// WriteQueueLen returns the write queue depth for a channel.
func (c *Controller) WriteQueueLen(ch int) int { return c.shards[ch].writeQ.Len() }

// Cycle performs one controller clock of scheduling work across all
// channels and returns the number of commands issued (activations,
// column reads and writes). The caller must invoke it with strictly
// increasing ticks; a zero return with every core blocked is the run
// loop's licence to consider fast-forwarding (see NextWork).
func (c *Controller) Cycle(now sim.Tick) int {
	if c.cfg.Energy != nil {
		c.cfg.Energy.AdvanceBackground(now)
	}
	issued := 0
	for ch := range c.shards {
		issued += c.shards[ch].cycle(now)
	}
	return issued
}

// cycle runs one controller clock for this channel: scheduling, then
// queued-wait accounting and stall attribution. Accounting happens after
// scheduling, so a request that issued this cycle does not count this
// cycle — matching the attribution pass, which classifies exactly the
// requests still queued at this point.
func (s *shard) cycle(now sim.Tick) int {
	issued := s.schedule(now)
	queued := s.readQ.Len() + s.writeQ.Len()
	s.st.queuedWaitCycles.Add(uint64(queued))
	if s.tel != nil {
		emitted := s.attributeStalls(now, 1)
		if invariant.Enabled {
			invariant.Assertf(emitted == queued,
				"stall attribution emitted %d events for %d queued requests (tick %d): "+
					"per-cause buckets no longer sum to QueuedWaitCycles", emitted, queued, now)
		}
	}
	return issued
}

// attributeStalls classifies every request still queued after this
// cycle's scheduling, emitting exactly one StallEvent per request — the
// conservation invariant the stall-attribution engine relies on (sum of
// attributed causes == QueuedWaitCycles). Each event carries weight n:
// the per-cycle path passes 1, the fast-forward path passes the width
// of a window over which it has proved the classification constant. It
// returns the number of events emitted so the tagged build can assert
// conservation.
func (s *shard) attributeStalls(now sim.Tick, n uint64) int {
	emitted := 0
	s.readQ.Scan(func(_ int, r *mem.Request) bool {
		emitted++
		b := s.bankOf(r)
		s.tel.Stall(telemetry.StallEvent{
			ReqID: r.ID, Loc: r.Loc,
			SAG: b.SAGOf(r.Loc.Row), CD: b.CDOf(r.Loc.Col),
			Cause: s.classifyReadStall(r, b, now), Now: now, N: n,
		})
		return true
	})
	s.writeQ.Scan(func(_ int, w *mem.Request) bool {
		emitted++
		b := s.bankOf(w)
		s.tel.Stall(telemetry.StallEvent{
			ReqID: w.ID, Write: true, Loc: w.Loc,
			SAG: b.SAGOf(w.Loc.Row), CD: b.CDOf(w.Loc.Col),
			Cause: s.classifyWriteStall(w, b, now), Now: now, N: n,
		})
		return true
	})
	return emitted
}

// classifyReadStall attributes one waiting cycle of a queued read. The
// bank rules come first (SAG/CD/write conflicts); a device-ready
// request that could burst but didn't was blocked by the shared bus
// (lane budget); a device-ready request still needing its activation
// was held back either by a draining write batch or by controller
// policy (activation budget, anti-thrash guard) — the latter lands in
// the controller-idle bucket together with tCCD pacing and
// own-sense-in-flight waits.
func (s *shard) classifyReadStall(r *mem.Request, b *core.Bank, now sim.Tick) telemetry.StallCause {
	if cause, blocked := b.ReadStallCause(r.Loc.Row, r.Loc.Col, now); blocked {
		return cause
	}
	if b.CanRead(r.Loc.Row, r.Loc.Col, now) {
		return telemetry.StallBusConflict
	}
	if b.NeedsActivate(r.Loc.Row, r.Loc.Col, now) &&
		(s.drain || s.writeQ.Full()) {
		// schedule suppresses new activations while writes drain.
		return telemetry.StallWriteDrain
	}
	return telemetry.StallControllerIdle
}

// classifyWriteStall attributes one waiting cycle of a queued write:
// bank conflicts first, then the shared bus, then deliberate deferral
// (idle-window hysteresis, clobber avoidance, one-write-per-cycle
// budget) as controller-idle.
func (s *shard) classifyWriteStall(w *mem.Request, b *core.Bank, now sim.Tick) telemetry.StallCause {
	if cause, blocked := b.WriteStallCause(w.Loc.Row, w.Loc.Col, now); blocked {
		return cause
	}
	if b.CanWrite(w.Loc.Row, w.Loc.Col, now) && s.busLaneFor(now+s.cfg.Tim.TCWD) < 0 {
		return telemetry.StallBusConflict
	}
	return telemetry.StallControllerIdle
}

// schedule issues this channel's commands for one controller clock.
func (s *shard) schedule(now sim.Tick) int {
	if s.indexed {
		if s.memoValid && now < s.memoUntil {
			// A prior cycle proved nothing can issue before memoUntil
			// and no enqueue has landed since (enqueue invalidates), so
			// every predicate below still holds its memoized value:
			// skip the scans and replay the per-cycle counter bump.
			//
			// lastReadActive is deliberately NOT advanced here. While
			// the read queue is non-empty the reference path would pin
			// it to now, but the only consumer outside the scans —
			// NextWork's idle-write deadline — reads it exclusively
			// when the read queue is empty, and reads can only leave
			// the queue via an issuing (= non-memoized) cycle, which
			// re-pins it first.
			if s.memoBusStalls > 0 {
				s.st.busStallCycles.Add(uint64(s.memoBusStalls))
			}
			if invariant.Enabled && s.wouldIssue(now) {
				invariant.Assertf(false,
					"ready memo claims channel idle until %d but a command can issue at %d", s.memoUntil, now)
			}
			return 0
		}
		s.memoValid = false
	}
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
	if count == 0 && s.indexed {
		// Nothing can issue until some predicate flips: the same
		// flip-tick analysis that licenses fast-forward bounds how long
		// this cycle's outcome stays valid. Arm the ready memo so the
		// window's remaining cycles skip the scans. busStallsPerCycle
		// is constant across the window for the same reason the batch
		// credit in SkipCycles is exact.
		s.memoUntil = s.channelNextWork(now)
		if s.memoUntil > now+1 {
			s.memoBusStalls = s.busStallsPerCycle(now)
			s.memoValid = true
		}
	}
	return count
}

// updateDrain maintains the write-drain hysteresis: draining starts at
// the high watermark and runs down to the low watermark, so writes pay
// their tile-blocking cost in batches rather than one at a time in the
// middle of read bursts. With Backgrounded Writes the threshold is the
// full queue — deferring writes is nearly free there because a
// draining write blocks one tile instead of the bank, so the queue is
// allowed to back up further before the batch starts.
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
		s.st.writeDrainEvents.Inc()
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
	// segment is open, sensed, and whose data burst fits on the bus.
	// Bus admission depends only on now, not the candidate, so the
	// lane is resolved once for the pass: with a lane free the
	// first device-ready request issues (no stall increments); with no
	// lane free every device-ready request counts one bus stall,
	// exactly as the per-candidate formulation would.
	lane := s.busLaneFor(now + s.cfg.Tim.TCAS)
	for i := 0; i < limit; i++ {
		r := q.At(i)
		b := s.bankOf(r)
		if !b.CanRead(r.Loc.Row, r.Loc.Col, now) {
			continue
		}
		if lane < 0 {
			s.st.busStallCycles.Inc()
			continue // column conflict: I/O lines busy
		}
		s.issueColumnRead(r, b, lane, i, now)
		return true, false
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
		if !r.Issued() {
			r.MarkIssued(now)
			if b.SegmentOpen(r.Loc.Row, r.Loc.Col) {
				s.hitSeen[r] = true
			}
			if s.tel != nil {
				s.telRequest(telemetry.ReqIssued, r, now)
			}
		}
		b.Activate(r.Loc.Row, r.Loc.Col, now)
		s.st.activations.Inc()
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
	if s.indexed {
		// Any clobber-relevant request is a queued read in r's bank
		// sharing its SAG or CD. r itself contributes one count to its
		// own bank, SAG and CD cells, so counts of exactly one mean no
		// such other request exists and the older-request scan below
		// must come up empty. (The converse does not hold — a matching
		// count may be younger than r, same-row, or segment-closed —
		// so a positive filter still scans.)
		bi := s.bankIndex(r.Loc)
		if s.bankReads[bi] == 1 ||
			(s.sagReads[bi*s.cfg.Geom.SAGs+sag] == 1 && s.cdReads[bi*s.cfg.Geom.CDs+cd] == 1) {
			if invariant.Enabled && s.scanActivationClobbers(q, self, r, sag, cd) {
				invariant.Assertf(false,
					"tile index pre-filter wrongly cleared activation for read %d", r.ID)
			}
			return false
		}
	}
	return s.scanActivationClobbers(q, self, r, sag, cd)
}

// scanActivationClobbers is the reference older-request scan.
func (s *shard) scanActivationClobbers(q *mem.Queue, self int, r *mem.Request, sag, cd int) bool {
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
	if !r.Issued() {
		r.MarkIssued(now)
		s.hitSeen[r] = true // ready without us ever activating for it
		if s.tel != nil {
			s.telRequest(telemetry.ReqIssued, r, now)
		}
	}
	if s.hitSeen[r] {
		s.st.segmentHits.Inc()
	}
	delete(s.hitSeen, r)
	if b.WriteInFlight(now) {
		s.st.backgroundedRds.Inc()
	}
	done := b.Read(r.Loc.Row, r.Loc.Col, now)
	s.busUse[lane] = done // bus busy until the burst ends
	s.hotCD[s.bankIndex(r.Loc)] = b.CDOf(r.Loc.Col)
	s.st.columnReads.Inc()
	s.readQ.Remove(qi)
	if s.indexed {
		s.noteReadDequeued(r)
	}
	if s.tel != nil {
		s.tel.Command(telemetry.Command{
			Kind: telemetry.CmdBus,
			Bank: telemetry.BankID{Channel: r.Loc.Channel, Rank: r.Loc.Rank, Bank: r.Loc.Bank},
			CD:   lane, Row: r.Loc.Row, Col: r.Loc.Col, ReqID: r.ID,
			Start: now + s.cfg.Tim.TCAS, End: done,
		})
	}
	s.eng.ScheduleArg(done, s.finishReadFn, r)
}

// finishRead completes a read request: it runs as a scheduled ArgEvent
// with the request as its argument.
func (c *Controller) finishRead(t sim.Tick, arg any) {
	r := arg.(*mem.Request)
	r.Finish(t)
	c.st.Reads.Inc()
	c.st.ReadLatency.Observe(float64(r.Latency()))
	c.st.ReadLatencyHist.Observe(uint64(r.Latency()))
	c.inflight--
	if c.tel != nil {
		c.telRequest(telemetry.ReqCompleted, r, t)
	}
}

// finishWrite completes a write request.
func (c *Controller) finishWrite(t sim.Tick, arg any) {
	w := arg.(*mem.Request)
	w.Finish(t)
	c.st.Writes.Inc()
	c.st.WriteLatency.Observe(float64(w.Latency()))
	c.inflight--
	if c.tel != nil {
		c.telRequest(telemetry.ReqCompleted, w, t)
	}
}

// telRequest is the lifecycle emitter used by the completion callbacks.
func (c *Controller) telRequest(phase telemetry.RequestPhase, r *mem.Request, now sim.Tick) {
	c.tel.Request(telemetry.RequestEvent{
		Phase: phase, ID: r.ID, Write: r.Op == mem.Write,
		Loc: r.Loc, Now: now, Arrive: r.Arrive,
	})
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

	// Preferred pass: the oldest legal write whose (SAG, CD) does not
	// collide with any queued read — "put the write where the reads
	// are not", the scheduling half of Backgrounded Writes.
	pick := -1
	for i := 0; i < limit; i++ {
		w := q.At(i)
		b := s.bankOf(w)
		if !b.CanWrite(w.Loc.Row, w.Loc.Col, now) {
			continue
		}
		if s.writeClobbersPendingRead(w, b) {
			continue
		}
		pick = i
		break
	}
	if pick < 0 && force {
		// Under pressure: take the oldest write that is merely legal.
		for i := 0; i < limit; i++ {
			w := q.At(i)
			b := s.bankOf(w)
			if b.CanWrite(w.Loc.Row, w.Loc.Col, now) {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		return false
	}
	w := q.Remove(pick)
	b := s.bankOf(w)
	w.MarkIssued(now)
	done := b.Write(w.Loc.Row, w.Loc.Col, now)
	s.busUse[lane] = now + s.cfg.Tim.TCWD + s.cfg.Tim.TBURST
	if s.tel != nil {
		s.telRequest(telemetry.ReqIssued, w, now)
		s.tel.Command(telemetry.Command{
			Kind: telemetry.CmdBus,
			Bank: telemetry.BankID{Channel: w.Loc.Channel, Rank: w.Loc.Rank, Bank: w.Loc.Bank},
			CD:   lane, Row: w.Loc.Row, Col: w.Loc.Col, ReqID: w.ID,
			Start: now + s.cfg.Tim.TCWD, End: now + s.cfg.Tim.TCWD + s.cfg.Tim.TBURST,
		})
	}
	s.eng.ScheduleArg(done, s.finishWriteFn, w)
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

// wouldAccept is the per-channel admission test behind WouldAccept.
func (s *shard) wouldAccept(r *mem.Request) bool {
	line := r.Addr / uint64(s.cfg.Geom.LineBytes)
	hit := false
	s.writeQ.Scan(func(_ int, w *mem.Request) bool {
		if w.Addr/uint64(s.cfg.Geom.LineBytes) == line {
			hit = true
			return false
		}
		return true
	})
	if hit {
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
// The result is the minimum over every "flip tick" of the predicates
// consulted by schedule and the stall classifiers: bank timer
// expiries (core.Bank.NextRelease), shared-bus lane releases offset by
// the tCAS/tCWD admission lookahead, and the idle-write hysteresis
// deadline. Every such predicate compares now against exactly one of
// these values, so in the open window before the returned tick the
// controller's admissible-command set, its stall classifications and
// its per-cycle counter increments are all provably constant.
func (c *Controller) NextWork(now sim.Tick) sim.Tick {
	next := sim.MaxTick
	for ch := range c.shards {
		if t := c.shards[ch].nextWork(now); t < next {
			next = t
		}
	}
	return next
}

// nextWork is one channel's flip-tick analysis. An armed memo already
// is that analysis: it was computed at some t0 <= now, and had any flip
// occurred in (t0, now] the memo would have expired. Reuse it instead
// of rescanning every bank.
func (s *shard) nextWork(now sim.Tick) sim.Tick {
	if s.indexed && s.memoValid && s.memoUntil > now {
		return s.memoUntil
	}
	return s.channelNextWork(now)
}

// channelNextWork is NextWork restricted to this channel: the earliest
// tick strictly after now at which any of the channel's scheduling
// predicates can flip, or sim.MaxTick when both queues are empty.
func (s *shard) channelNextWork(now sim.Tick) sim.Tick {
	if s.readQ.Empty() && s.writeQ.Empty() {
		return sim.MaxTick
	}
	next := sim.MaxTick
	consider := func(t sim.Tick) {
		if t > now && t < next {
			next = t
		}
	}
	// Every bank of the channel, not just the queued requests'
	// targets: cheaper than scanning the (often longer) queues, and
	// extra flip candidates can only shorten the jump, never break
	// its exactness.
	for _, b := range s.banks {
		consider(b.NextRelease(now))
	}
	for _, busy := range s.busUse {
		// Bus admission tests are busy <= t+tCAS (reads) and
		// busy <= t+tCWD (writes): they flip at busy-tCAS and
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
		// its deadline is a flip only while no reads keep pushing
		// lastReadActive forward.
		consider(s.lastReadActive + idleWriteDelay)
	}
	return next
}

// busStallsPerCycle counts the column-read candidates that are
// device-ready but blocked only by the shared bus — exactly the
// per-cycle busStallCycles increment tryIssueRead's first pass
// performs when nothing can issue.
func (s *shard) busStallsPerCycle(now sim.Tick) int {
	if s.busLaneFor(now+s.cfg.Tim.TCAS) >= 0 {
		return 0 // a free lane means device-ready candidates issue, not stall
	}
	q := s.readQ
	limit := q.Len()
	if s.cfg.Scheduler == FCFS && limit > 1 {
		limit = 1
	}
	n := 0
	for i := 0; i < limit; i++ {
		r := q.At(i)
		b := s.bankOf(r)
		if b.CanRead(r.Loc.Row, r.Loc.Col, now) {
			n++
		}
	}
	return n
}

// SkipCycles batch-credits n skipped controller cycles (ticks now+1
// through now+n) during a fast-forward window. The caller guarantees
// the window is quiescent: Cycle(now) issued nothing, no event fires
// before now+n+1, and no enqueue succeeds in the window — under which
// NextWork's flip-tick analysis proves every scheduling predicate and
// stall classification equal to its value at now throughout. The
// per-cycle work therefore reduces to multiplication: queued-wait and
// bus-stall counters advance by n times their per-cycle increment, and
// stall attribution emits one weighted event per queued request.
// Background energy needs no crediting here — the energy model
// integrates elapsed ticks exactly on the next Cycle.
func (c *Controller) SkipCycles(now sim.Tick, n uint64) {
	if n == 0 {
		return
	}
	for ch := range c.shards {
		c.shards[ch].skipCycles(now, n)
	}
}

// skipCycles is one channel's share of a fast-forward batch credit.
func (s *shard) skipCycles(now sim.Tick, n uint64) {
	queued := s.readQ.Len() + s.writeQ.Len()
	if queued == 0 {
		return
	}
	s.st.queuedWaitCycles.Add(uint64(queued) * n)
	if stalls := s.busStallsPerCycle(now); stalls > 0 {
		s.st.busStallCycles.Add(uint64(stalls) * n)
	}
	if s.tel != nil {
		emitted := s.attributeStalls(now, n)
		if invariant.Enabled {
			invariant.Assertf(emitted == queued,
				"fast-forward stall attribution emitted %d weighted events for %d queued requests (tick %d)",
				emitted, queued, now)
		}
	}
}

// SkipRejects batch-credits n futile enqueue retries of r (one per
// skipped tick): the reference loop would have re-attempted Enqueue
// each cycle and emitted one StallQueueFull event per rejection. The
// caller guarantees WouldAccept(r) is false for the whole window. Only
// telemetry observes rejections, so with no sink this is a no-op.
func (c *Controller) SkipRejects(r *mem.Request, now sim.Tick, n uint64) {
	if n == 0 || c.tel == nil {
		return
	}
	loc := c.mapper.Decode(r.Addr)
	c.tel.Stall(telemetry.StallEvent{
		ReqID: r.ID, Write: r.Op == mem.Write, Loc: loc,
		Cause: telemetry.StallQueueFull, Now: now, N: n,
	})
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
	if s.indexed {
		// The tile candidate counts answer the existence question the
		// scan below asks — "is any queued read targeting this bank's
		// SAG or CD?" — in O(1).
		bi := s.bankIndex(w.Loc)
		clash := s.sagReads[bi*s.cfg.Geom.SAGs+sag] > 0 || s.cdReads[bi*s.cfg.Geom.CDs+cd] > 0
		if invariant.Enabled && clash != s.scanWriteClobbers(w, sag, cd) {
			invariant.Assertf(false,
				"tile index disagrees with reference scan for write %d (index says clash=%v)", w.ID, clash)
		}
		return clash
	}
	return s.scanWriteClobbers(w, sag, cd)
}

// wouldIssue re-derives, from scratch and without mutating anything,
// whether schedule would issue at least one command at now. It exists
// for the fgnvm_invariants build: every memoized (skipped) cycle
// asserts this is false, i.e. ready-memo membership really does mean
// "not issuable now, next possible at a known tick".
func (s *shard) wouldIssue(now sim.Tick) bool {
	writesFirst := s.drain || s.writeQ.Full()
	// schedule attempts a write either first (writesFirst) or as a
	// fallback after the read passes, so a write candidate means a
	// command issues regardless of ordering.
	if s.wouldIssueWrite(now) {
		return true
	}
	rq := s.readQ
	if rq.Empty() {
		return false
	}
	limit := rq.Len()
	if s.cfg.Scheduler == FCFS {
		limit = 1
	}
	if s.busLaneFor(now+s.cfg.Tim.TCAS) >= 0 {
		for i := 0; i < limit; i++ {
			r := rq.At(i)
			if s.bankOf(r).CanRead(r.Loc.Row, r.Loc.Col, now) {
				return true
			}
		}
	}
	if writesFirst {
		return false // activations are suppressed while writes drain
	}
	for i := 0; i < limit; i++ {
		r := rq.At(i)
		b := s.bankOf(r)
		if b.NeedsActivate(r.Loc.Row, r.Loc.Col, now) &&
			b.CanActivate(r.Loc.Row, r.Loc.Col, now) &&
			!s.activationClobbers(rq, i, r, b) {
			return true
		}
	}
	return false
}

// wouldIssueWrite is tryIssueWrite's decision without its side effects.
func (s *shard) wouldIssueWrite(now sim.Tick) bool {
	q := s.writeQ
	if q.Empty() {
		return false
	}
	force := s.drain || q.Full()
	if !force {
		// The hysteresis predicate as the reference path sees it: with
		// reads queued, lastReadActive would track now every cycle, so
		// the deferral holds; memoized cycles leave the stored value
		// stale, which must not be read directly here.
		if !s.readQ.Empty() || now < s.lastReadActive+idleWriteDelay {
			return false
		}
	}
	if s.busLaneFor(now+s.cfg.Tim.TCWD) < 0 {
		return false
	}
	limit := q.Len()
	if s.cfg.Scheduler == FCFS {
		limit = 1
	}
	for i := 0; i < limit; i++ {
		w := q.At(i)
		b := s.bankOf(w)
		if !b.CanWrite(w.Loc.Row, w.Loc.Col, now) {
			continue
		}
		if force || !s.writeClobbersPendingRead(w, b) {
			return true
		}
	}
	return false
}

// verifyIndex recounts the tile candidate index from the read queue and
// asserts it matches the incrementally maintained counts. Runs only in
// the fgnvm_invariants build (called on every enqueue).
func (s *shard) verifyIndex() {
	nb := s.cfg.Geom.Ranks * s.cfg.Geom.Banks
	bankN := make([]int32, nb)
	sagN := make([]int32, nb*s.cfg.Geom.SAGs)
	cdN := make([]int32, nb*s.cfg.Geom.CDs)
	s.readQ.Scan(func(_ int, r *mem.Request) bool {
		bi := s.bankIndex(r.Loc)
		bankN[bi]++
		sagN[bi*s.cfg.Geom.SAGs+r.Loc.Row%s.cfg.Geom.SAGs]++
		cdN[bi*s.cfg.Geom.CDs+r.Loc.Col%s.cfg.Geom.CDs]++
		return true
	})
	for i := range bankN {
		invariant.Assertf(bankN[i] == s.bankReads[i],
			"tile index bankReads[%d]=%d, queue holds %d", i, s.bankReads[i], bankN[i])
	}
	for i := range sagN {
		invariant.Assertf(sagN[i] == s.sagReads[i],
			"tile index sagReads[%d]=%d, queue holds %d", i, s.sagReads[i], sagN[i])
	}
	for i := range cdN {
		invariant.Assertf(cdN[i] == s.cdReads[i],
			"tile index cdReads[%d]=%d, queue holds %d", i, s.cdReads[i], cdN[i])
	}
}

// scanWriteClobbers is the reference O(readQ) form of the clobber test.
func (s *shard) scanWriteClobbers(w *mem.Request, sag, cd int) bool {
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
