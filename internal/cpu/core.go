// The out-of-order core model: in-order fetch and retire around a
// reorder-buffer window, loads blocking retirement until their fill
// returns, stores and writebacks flowing to memory without blocking
// (unless structural resources run out). This reproduces the mechanism
// by which memory latency and memory-level parallelism become IPC,
// which is what Figure 4 measures.

package cpu

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MemorySystem is the core's view of memory: accept a request now, or
// refuse it (backpressure). Both the FgNVM controller and the DRAM
// reference system implement it.
type MemorySystem interface {
	Enqueue(r *mem.Request, now sim.Tick) bool
	// WouldAccept reports whether Enqueue(r) would succeed right now,
	// without performing it or mutating any state. Core.Blocked uses it
	// to prove that a pending retry is futile, which is what licenses
	// the run loop to fast-forward over the stalled cycles.
	WouldAccept(r *mem.Request) bool
}

// CoreConfig sizes the core. Zero fields take Nehalem-like defaults.
type CoreConfig struct {
	ROB            int    // reorder buffer entries (default 128)
	MSHRs          int    // outstanding misses (default 16)
	RetireWidth    int    // instructions per CPU cycle (default 4)
	CPUPerMemCycle int    // CPU cycles per controller cycle (default 8: 3.2 GHz / 400 MHz)
	Instructions   uint64 // retire budget; 0 means run until the stream ends
}

func (c *CoreConfig) applyDefaults() {
	if c.ROB == 0 {
		c.ROB = 128
	}
	if c.MSHRs == 0 {
		c.MSHRs = 16
	}
	if c.RetireWidth == 0 {
		c.RetireWidth = 4
	}
	if c.CPUPerMemCycle == 0 {
		c.CPUPerMemCycle = 8
	}
}

// loadEntry tracks an in-flight demand load occupying a ROB slot. req
// backlinks to the fill request while the load is in flight (done is
// false); once the completion callback marks done the pointer is stale
// (the request recycles through the pool) and must not be followed.
type loadEntry struct {
	idx  uint64 // instruction index in program order
	done bool
	req  *mem.Request
}

// Core consumes an access stream, filters it through the LLC, issues
// misses to the memory controller, and advances an instruction clock
// gated by the ROB window.
type Core struct {
	cfg    CoreConfig
	stream trace.Stream
	llc    *LLC
	ctrl   MemorySystem

	fetched uint64 // instructions dispatched into the window
	retired uint64

	// loads is a fixed-capacity ring (cap ROB: every outstanding load
	// occupies a ROB slot) holding the FIFO of in-flight demand loads.
	// Entries live at stable addresses — the completion callback finds
	// its entry through mem.Request.Entry — and a slot is reused only
	// after its load has completed AND retired, so the pointer never
	// outlives the data.
	loads    []loadEntry
	loadHead int
	loadLen  int

	outstanding int // MSHR occupancy (loads + store-miss fills)

	pendingGap    uint32 // plain instructions left before the held access
	heldAcc       trace.Access
	haveAcc       bool
	heldRes       LLCResult // cached LLC outcome for the held access
	heldProcessed bool      // heldRes is valid (avoids re-accessing the LLC on retry)
	streamDone    bool

	pendingWB *mem.Request // writeback waiting for write-queue space
	// pendingFill is the line-fill request for the held access, kept
	// across enqueue rejections so retries re-offer the same request
	// (same ID) instead of minting a new one per cycle.
	pendingFill *mem.Request

	nextID uint64

	// pool recycles completed mem.Requests. A request is parked there
	// by its completion callback and stays untouched (the controller
	// still reads its timestamps right after OnComplete fires) until
	// Pool.Get resets and reuses it.
	pool *mem.Pool

	// Completion callbacks, cached once so assigning OnComplete on the
	// fetch path does not allocate.
	loadDoneFn  func(r *mem.Request, now sim.Tick)
	storeDoneFn func(r *mem.Request, now sim.Tick)
	wbDoneFn    func(r *mem.Request, now sim.Tick)

	// Stats.
	demandLoads uint64
	storeMisses uint64
	writebacks  uint64
	stallCycles uint64 // memory cycles with zero retirement
}

// NewCore wires a core to its stream, cache and memory controller.
// llc may be nil, in which case every access is a miss (pre-filtered
// trace).
func NewCore(cfg CoreConfig, s trace.Stream, llc *LLC, ctrl MemorySystem) (*Core, error) {
	cfg.applyDefaults()
	if s == nil {
		return nil, fmt.Errorf("cpu: nil stream")
	}
	if ctrl == nil {
		return nil, fmt.Errorf("cpu: nil controller")
	}
	if cfg.ROB < 1 || cfg.MSHRs < 1 || cfg.RetireWidth < 1 || cfg.CPUPerMemCycle < 1 {
		return nil, fmt.Errorf("cpu: non-positive core parameter %+v", cfg)
	}
	c := &Core{
		cfg: cfg, stream: s, llc: llc, ctrl: ctrl,
		loads: make([]loadEntry, cfg.ROB),
		// Every request a core can have outstanding at once: one per
		// MSHR plus a held fill and a held writeback.
		pool: mem.NewPool(cfg.MSHRs + 2),
	}
	c.loadDoneFn = c.loadDone
	c.storeDoneFn = c.storeDone
	c.wbDoneFn = c.wbDone
	return c, nil
}

// loadDone completes a demand load: mark its ROB entry, free the MSHR,
// recycle the request.
func (c *Core) loadDone(r *mem.Request, _ sim.Tick) {
	r.Entry.(*loadEntry).done = true
	c.outstanding--
	c.pool.Put(r)
}

// storeDone completes a store-miss fill (no ROB entry to wake).
func (c *Core) storeDone(r *mem.Request, _ sim.Tick) {
	c.outstanding--
	c.pool.Put(r)
}

// wbDone completes a dirty-eviction writeback.
func (c *Core) wbDone(r *mem.Request, _ sim.Tick) {
	c.pool.Put(r)
}

// newRequest returns a zeroed request with a fresh ID, reusing a
// recycled one when available.
func (c *Core) newRequest() *mem.Request {
	c.nextID++
	r := c.pool.Get()
	r.ID = c.nextID
	return r
}

// front returns the oldest outstanding load. Caller checks loadLen > 0.
func (c *Core) front() *loadEntry { return &c.loads[c.loadHead] }

// popLoad retires the oldest outstanding load.
func (c *Core) popLoad() {
	c.loadHead++
	if c.loadHead == len(c.loads) {
		c.loadHead = 0
	}
	c.loadLen--
}

// pushLoad appends a load at instruction index idx and returns its
// (address-stable) ring entry.
func (c *Core) pushLoad(idx uint64) *loadEntry {
	slot := c.loadHead + c.loadLen
	if slot >= len(c.loads) {
		slot -= len(c.loads)
	}
	c.loads[slot] = loadEntry{idx: idx}
	c.loadLen++
	return &c.loads[slot]
}

// Finished reports whether the core has retired its budget (or fully
// drained an exhausted stream).
func (c *Core) Finished() bool {
	if c.cfg.Instructions > 0 && c.retired >= c.cfg.Instructions {
		return true
	}
	return c.streamDone && !c.haveAcc && c.pendingGap == 0 &&
		c.pendingWB == nil &&
		c.retired == c.fetched && c.loadLen == 0
}

// Retired returns the number of instructions retired so far.
func (c *Core) Retired() uint64 { return c.retired }

// StallCycles returns the number of memory cycles with zero retirement.
func (c *Core) StallCycles() uint64 { return c.stallCycles }

// DemandLoads returns the number of load misses sent to memory.
func (c *Core) DemandLoads() uint64 { return c.demandLoads }

// StoreMisses returns the number of store-miss line fills sent.
func (c *Core) StoreMisses() uint64 { return c.storeMisses }

// Writebacks returns the number of dirty-eviction writes sent.
func (c *Core) Writebacks() uint64 { return c.writebacks }

// IPC returns retired instructions per CPU cycle after elapsed memory
// cycles.
func (c *Core) IPC(memCycles sim.Tick) float64 {
	if memCycles == 0 {
		return 0
	}
	return float64(c.retired) / (float64(memCycles) * float64(c.cfg.CPUPerMemCycle))
}

// Cycle advances the core by one memory-controller cycle: retire up to
// width×ratio instructions, then refill the window, issuing misses.
func (c *Core) Cycle(now sim.Tick) {
	budget := c.cfg.RetireWidth * c.cfg.CPUPerMemCycle
	retiredThis := 0

	for budget > 0 {
		if c.cfg.Instructions > 0 && c.retired >= c.cfg.Instructions {
			break
		}
		if c.loadLen > 0 && c.front().idx == c.retired {
			if !c.front().done {
				break // oldest instruction is a load still in flight
			}
			c.popLoad()
			c.retired++
			budget--
			retiredThis++
			continue
		}
		// Retire plain instructions up to the next outstanding load or
		// the fetch frontier.
		lim := c.fetched
		if c.loadLen > 0 && c.front().idx < lim {
			lim = c.front().idx
		}
		if c.cfg.Instructions > 0 && c.retired+uint64(budget) > c.cfg.Instructions {
			// Never retire past the budget.
			if lim > c.cfg.Instructions {
				lim = c.cfg.Instructions
			}
		}
		n := uint64(budget)
		if avail := lim - c.retired; avail < n {
			n = avail
		}
		if n == 0 {
			break
		}
		c.retired += n
		budget -= int(n)
		retiredThis += int(n)
	}
	if retiredThis == 0 && !c.Finished() {
		c.stallCycles++
	}

	c.fetch(now)
}

// fetch refills the window up to ROB instructions past retirement.
func (c *Core) fetch(now sim.Tick) {
	for c.fetched < c.retired+uint64(c.cfg.ROB) {
		// Flush any request blocked on queue space first, in order.
		if c.pendingWB != nil {
			if !c.ctrl.Enqueue(c.pendingWB, now) {
				return
			}
			c.pendingWB = nil
			c.writebacks++
		}

		if c.pendingGap > 0 {
			room := c.retired + uint64(c.cfg.ROB) - c.fetched
			n := uint64(c.pendingGap)
			if room < n {
				n = room
			}
			c.fetched += n
			c.pendingGap -= uint32(n)
			if c.pendingGap > 0 {
				return // window full of plain instructions
			}
		}

		if !c.haveAcc {
			a, ok := c.stream.Next()
			if !ok {
				c.streamDone = true
				return
			}
			c.heldAcc = a
			c.haveAcc = true
			c.pendingGap = a.Gap
			continue // consume the gap first
		}

		// The held access dispatches as one instruction. The LLC is
		// consulted exactly once per access; a fetch stall retries with
		// the cached outcome.
		a := c.heldAcc
		if !c.heldProcessed {
			if c.llc != nil {
				c.heldRes = c.llc.Access(a.Addr, a.Write)
			} else {
				c.heldRes = LLCResult{Miss: true}
			}
			c.heldProcessed = true
		}
		if !c.heldRes.Miss {
			// LLC hit: costs nothing extra at this fidelity.
			c.fetched++
			c.haveAcc = false
			c.heldProcessed = false
			continue
		}
		// Dirty eviction first: it must reach memory eventually, and we
		// preserve order by holding fetch until it enqueues.
		if c.heldRes.HasWriteback {
			wb := c.newRequest()
			wb.Op = mem.Write
			wb.Addr = c.heldRes.Writeback
			wb.OnComplete = c.wbDoneFn
			c.heldRes.HasWriteback = false // never re-issue on retry
			if !c.ctrl.Enqueue(wb, now) {
				c.pendingWB = wb
				return
			}
			c.writebacks++
		}
		if c.outstanding >= c.cfg.MSHRs {
			return // no MSHR for the fill
		}
		// The fill is minted once and held across enqueue rejections:
		// every retry re-offers the same request, so a backpressured
		// window neither burns IDs nor allocates.
		if c.pendingFill == nil {
			fill := c.newRequest()
			fill.Op = mem.Read
			fill.Addr = a.Addr
			if a.Write {
				// Store miss: the fill occupies an MSHR but does not
				// block retirement (stores drain through the store
				// buffer).
				fill.OnComplete = c.storeDoneFn
			} else {
				fill.OnComplete = c.loadDoneFn
			}
			c.pendingFill = fill
		}
		if !c.ctrl.Enqueue(c.pendingFill, now) {
			return
		}
		fill := c.pendingFill
		c.pendingFill = nil
		c.outstanding++
		if a.Write {
			c.storeMisses++
		} else {
			// The completion callback can fire no earlier than now+1,
			// after Entry is in place.
			e := c.pushLoad(c.fetched)
			e.req = fill
			fill.Entry = e
			c.demandLoads++
		}
		c.fetched++
		c.haveAcc = false
		c.heldProcessed = false
	}
}

// Blocked reports whether the core is provably unable to retire an
// instruction or change memory-system state until something external
// changes — a completion event fires or a queue transition admits a
// pending retry. Concretely: retirement is gated (the oldest window
// slot is an in-flight load, or the window is empty), and the fetch
// path is quiescent (window full; or its next action is an enqueue the
// memory system proves it WouldAccept-reject; or it is out of MSHRs or
// stream). A false return is always safe — the run loop just keeps
// stepping cycle by cycle — so every transient state (unprocessed
// held access, unminted fill, pending writeback construction) reports
// false rather than reasoning about what one more cycle would do.
func (c *Core) Blocked() bool {
	if c.loadLen > 0 {
		if f := c.front(); f.idx != c.retired || f.done {
			return false // something retires next cycle
		}
	} else if c.retired != c.fetched {
		return false // plain instructions retire next cycle
	}
	if c.fetched >= c.retired+uint64(c.cfg.ROB) {
		return true // window full: the fetch loop body never runs
	}
	if c.pendingWB != nil {
		return !c.ctrl.WouldAccept(c.pendingWB)
	}
	if c.pendingGap > 0 {
		return false // would dispatch plain instructions
	}
	if !c.haveAcc {
		// With the stream exhausted fetch just re-polls it; otherwise a
		// new access would dispatch.
		return c.streamDone
	}
	if !c.heldProcessed || !c.heldRes.Miss || c.heldRes.HasWriteback {
		return false // would access the LLC, dispatch a hit, or mint a writeback
	}
	if c.outstanding >= c.cfg.MSHRs {
		return true // fill blocked on an MSHR: only a completion frees one
	}
	if c.pendingFill == nil {
		return false // would mint the fill request
	}
	return !c.ctrl.WouldAccept(c.pendingFill)
}

// RetryRequest returns the request the fetch path futilely re-offers to
// the memory system every cycle while Blocked, or nil when the blocked
// state involves no enqueue attempt (full window, MSHR exhaustion,
// drained stream). The run loop uses it to batch-credit the per-cycle
// rejection telemetry across a fast-forward window.
func (c *Core) RetryRequest() *mem.Request {
	if c.fetched >= c.retired+uint64(c.cfg.ROB) {
		return nil
	}
	if c.pendingWB != nil {
		return c.pendingWB
	}
	if c.pendingGap > 0 || !c.haveAcc || !c.heldProcessed ||
		!c.heldRes.Miss || c.heldRes.HasWriteback ||
		c.outstanding >= c.cfg.MSHRs {
		return nil
	}
	return c.pendingFill
}

// SkipStallCycles credits n zero-retirement cycles at once: the batch
// equivalent of the stallCycles increment Cycle performs, used when the
// run loop fast-forwards over a window it has proved the core Blocked
// for.
func (c *Core) SkipStallCycles(n uint64) { c.stallCycles += n }
