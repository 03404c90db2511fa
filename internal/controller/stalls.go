package controller

import (
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// A queued request's stall class is either a stall cause or one of two
// classes the bank cannot settle on its own. A read no bank rule blocks
// that still needs its activation waits on a write drain or on
// controller policy; a write no bank rule blocks that has met tCCD
// waits on the shared bus or on controller policy. Both depend on
// channel state, not on the bank, so the memo keeps them as classes and
// resolveStalls turns them into causes at every account.
const (
	stallActivate   = telemetry.NumStallCauses + iota // unblocked read that needs its activation
	stallBurst                                        // unblocked write past tCCD
	numStallClasses                                   // causes plus the two channel-resolved classes
)

// stallMemo memoizes the stall classes of a channel's queued requests,
// bank by bank. A bank's classes depend only on its own timers and
// latches, so they hold until its next command or until the first of
// the timers its classifications compared releases, whichever comes
// first. A command on bank b marks only b stale, a push onto a bank
// with a valid memo classifies only the pushed request and lowers the
// bank's bound by that request's, and a release reclassifies only the
// bank whose compared timer it was.
type stallMemo struct {
	// count is the channel's class histogram: the sum of every bank's.
	count [numStallClasses]int
	// until is the least until over the tracked banks: account
	// reclassifies the banks due at or after it.
	until sim.Tick
	banks []bankStalls
	// tracked lists the banks with a queued request or a stale memo;
	// every other bank counts nothing.
	tracked []int
	// nodes is the slab the per-bank request lists are linked through,
	// one node per queue slot; free heads the unused nodes (-1: none).
	nodes []stallNode
	free  int32
}

// bankStalls is one bank's memo: the class histogram of its queued
// requests, valid until the least timer above the classification tick
// that any of their classifications compared (0 once a command makes
// it stale), and the head of the list of its queued requests, reads and
// writes alike, in no order.
type bankStalls struct {
	count   [numStallClasses]int32
	until   sim.Tick
	head    int32 // -1 when the bank has no queued request
	tracked bool
}

// stallNode links one queued request into its bank's list.
type stallNode struct {
	r    *mem.Request
	next int32
}

// newStallMemo allocates the memo of a channel of nb banks whose queues
// hold slots requests between them; nothing grows afterwards.
func newStallMemo(nb, slots int) *stallMemo {
	m := &stallMemo{
		banks:   make([]bankStalls, nb),
		tracked: make([]int, 0, nb),
		nodes:   make([]stallNode, slots),
	}
	for i := range m.banks {
		m.banks[i].head = -1
	}
	for i := range m.nodes {
		m.nodes[i].next = int32(i + 1)
	}
	m.nodes[slots-1].next = -1
	return m
}

// pushed files a request just pushed onto a queue under its bank. A
// bank whose memo is valid at now classifies the request, counts it and
// lowers its until, and the channel's, to the request's bound; a bank
// that was not tracked becomes tracked and stale.
func (s *shard) pushed(r *mem.Request, now sim.Tick) {
	m := s.stalls
	if m == nil {
		return
	}
	bi := s.bankIndex(r.Loc)
	bk := &m.banks[bi]
	n := m.free
	m.free = m.nodes[n].next
	m.nodes[n] = stallNode{r: r, next: bk.head}
	bk.head = n
	switch {
	case !bk.tracked:
		bk.tracked, bk.until = true, 0
		m.tracked = append(m.tracked, bi)
		m.until = 0
	case now < bk.until:
		c, until := s.stallClass(r, s.banks[bi], now)
		bk.count[c]++
		m.count[c]++
		bk.until = min(bk.until, until)
		m.until = min(m.until, until)
	}
}

// removed unlinks a request just removed from a queue. Only an issue
// removes a request, and the issue's markBusy leaves the bank stale, so
// its counts are rebuilt at the next account.
func (s *shard) removed(r *mem.Request) {
	m := s.stalls
	if m == nil {
		return
	}
	bk := &m.banks[s.bankIndex(r.Loc)]
	for p := &bk.head; *p >= 0; p = &m.nodes[*p].next {
		if n := *p; m.nodes[n].r == r {
			*p = m.nodes[n].next
			m.nodes[n] = stallNode{next: m.free}
			m.free = n
			return
		}
	}
	panic("controller: removed request is not on its bank's stall list")
}

// markBusy marks bank bi's stall memo, and under fgnvm_invariants its
// cached NextRelease, stale. Every command calls it: a command is the
// only thing that sets a bank timer or a latch.
func (s *shard) markBusy(bi int) {
	if m := s.stalls; m != nil {
		m.banks[bi].until = 0
		m.until = 0
	}
	if invariant.Enabled {
		s.releases[bi] = 0
	}
}

// attributeStalls credits Attribution with n cycles of the queued
// requests' stall histogram: one Stall(cause, k·n) per cause that k
// requests share, so a busy cycle costs O(causes). Banks whose memo is
// due are reclassified first; the tagged build checks every credited
// histogram against a fresh scan and against the queued count.
func (s *shard) attributeStalls(now sim.Tick, queued int, n uint64) {
	m := s.stalls
	if now >= m.until {
		s.refreshStalls(now)
	}
	h := s.resolveStalls(&m.count, now)
	if invariant.Enabled {
		if fresh := s.stallHistogram(now); fresh != h { // guarded so a passing cycle stays allocation-free
			invariant.Assertf(false, "stall memo resolves to histogram %v at tick %d, a fresh classification gives %v",
				h, now, fresh)
		}
		sum := 0
		for _, k := range h {
			sum += k
		}
		if sum != queued {
			invariant.Assertf(false, "stall histogram sums to %d for %d queued requests (tick %d): "+
				"per-cause buckets no longer sum to QueuedWaitCycles", sum, queued, now)
		}
	}
	for c, k := range h {
		if k != 0 {
			s.att.Stall(telemetry.StallCause(c), uint64(k)*n)
		}
	}
}

// refreshStalls reclassifies every tracked bank whose memo is stale or
// whose bound has come, untracks the banks left with no queued request,
// and sets the memo's until to the least bank until.
func (s *shard) refreshStalls(now sim.Tick) {
	m := s.stalls
	next := sim.MaxTick
	for i := len(m.tracked) - 1; i >= 0; i-- {
		bi := m.tracked[i]
		bk := &m.banks[bi]
		if now >= bk.until {
			b := s.banks[bi]
			var k [numStallClasses]int32
			until := sim.MaxTick
			for n := bk.head; n >= 0; n = m.nodes[n].next {
				c, u := s.stallClass(m.nodes[n].r, b, now)
				k[c]++
				until = min(until, u)
			}
			for c := range k {
				m.count[c] += int(k[c] - bk.count[c])
			}
			bk.count = k
			if bk.head < 0 {
				bk.tracked = false
				last := len(m.tracked) - 1
				m.tracked[i] = m.tracked[last]
				m.tracked = m.tracked[:last]
				continue
			}
			bk.until = until
		}
		next = min(next, bk.until)
	}
	m.until = next
}

// resolveStalls turns a class histogram into a cause histogram at now:
// the reads waiting on their activation count as write drain while
// writes drain (schedule then starts no activation) and as controller
// idle otherwise; the writes past tCCD count as bus conflicts when no
// lane is free at now+tCWD and as controller idle otherwise.
func (s *shard) resolveStalls(k *[numStallClasses]int, now sim.Tick) (h [telemetry.NumStallCauses]int) {
	copy(h[:], k[:telemetry.NumStallCauses])
	if s.drain || s.writeQ.Full() {
		h[telemetry.StallWriteDrain] += k[stallActivate]
	} else {
		h[telemetry.StallControllerIdle] += k[stallActivate]
	}
	if s.busLaneFor(now+s.cfg.Tim.TCWD) < 0 {
		h[telemetry.StallBusConflict] += k[stallBurst]
	} else {
		h[telemetry.StallControllerIdle] += k[stallBurst]
	}
	return h
}

// stallHistogram classifies every queued request at now and counts the
// requests per cause: the reference scan the memo must agree with.
func (s *shard) stallHistogram(now sim.Tick) [telemetry.NumStallCauses]int {
	var k [numStallClasses]int
	for i := 0; i < s.readQ.Len(); i++ {
		r := s.readQ.At(i)
		c, _ := s.stallClass(r, s.bankOf(r), now)
		k[c]++
	}
	for i := 0; i < s.writeQ.Len(); i++ {
		w := s.writeQ.At(i)
		c, _ := s.stallClass(w, s.bankOf(w), now)
		k[c]++
	}
	return s.resolveStalls(&k, now)
}

// stallClass classifies one waiting cycle of a queued request on bank
// b from the bank's state alone, and bounds the class: absent a command
// on b it holds on [now, until), where until is the least timer above
// now that the classification compared (sim.MaxTick when none is). The
// bank rules come first (SAG/CD/write conflicts, see core's
// ReadStallCause and WriteStallCause, which return their own bound).
//
// A device-ready read that could burst but didn't was blocked by the
// shared bus (lane budget); a read whose segment is not open and sensed
// (its activation not issued or its own sense in flight) is
// stallActivate; a read pacing tCCD is controller-idle. CanRead and
// NeedsActivate compare no timer above now that ReadStallCause did not,
// except tCCD's, which decides only the controller-idle read.
//
// A write past tCCD is stallBurst; one still pacing tCCD is
// controller-idle, as are deliberate deferrals (idle-window hysteresis,
// clobber avoidance, one-write-per-cycle budget) once resolved.
func (s *shard) stallClass(r *mem.Request, b *core.Bank, now sim.Tick) (int, sim.Tick) {
	row, col := r.Loc.Row, r.Loc.Col
	if r.Op == mem.Write {
		cause, blocked, until := b.WriteStallCause(row, col, now)
		if blocked {
			return int(cause), until
		}
		if ready := b.ColumnReadyAt(col); now < ready {
			return int(telemetry.StallControllerIdle), ready
		}
		return stallBurst, until
	}
	cause, blocked, until := b.ReadStallCause(row, col, now)
	switch {
	case blocked:
		return int(cause), until
	case b.CanRead(row, col, now):
		return int(telemetry.StallBusConflict), until
	case b.NeedsActivate(row, col, now):
		return stallActivate, until
	}
	return int(telemetry.StallControllerIdle), b.ColumnReadyAt(col)
}
