// Chrome trace-event / Perfetto JSON export: one track per (bank, SAG,
// CD) tile resource and per bus lane, plus request-lifetime flow
// events, so a simulation run can be opened in ui.perfetto.dev or
// chrome://tracing.

package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/addr"
	"repro/internal/sim"
)

// traceEvent is one entry of the Chrome trace-event format's JSON
// array form. Field order is fixed by the struct, and map-free, so the
// encoding is byte-deterministic for a deterministic event sequence.
type traceEvent struct {
	Name string   `json:"name"`
	Cat  string   `json:"cat,omitempty"`
	Ph   string   `json:"ph"`
	TS   uint64   `json:"ts"`
	Dur  uint64   `json:"dur,omitempty"`
	PID  int      `json:"pid"`
	TID  int      `json:"tid"`
	ID   string   `json:"id,omitempty"`
	BP   string   `json:"bp,omitempty"`
	Args *evtArgs `json:"args,omitempty"`
}

// evtArgs carries per-event details; a struct (not a map) keeps the
// JSON key order deterministic.
type evtArgs struct {
	Name  string `json:"name,omitempty"` // metadata payload
	Row   int    `json:"row,omitempty"`
	Col   int    `json:"col,omitempty"`
	Req   uint64 `json:"req,omitempty"`
	Value int    `json:"value,omitempty"` // counter payload
}

// traceFile is the top-level trace object. Timestamps are in simulated
// controller cycles, not microseconds; displayTimeUnit only affects the
// viewer's axis labels.
type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// Trace buffers simulation events and serializes them as Chrome
// trace-event JSON. Tracks:
//
//   - pid 2·ch+1 ("ch<ch> tiles"): one thread per (rank, bank, SAG,
//     CD) tile carrying ACT/RD/WR command slices, plus one thread per
//     data-bus lane carrying BUS burst slices;
//   - pid 2·ch+2 ("ch<ch> requests"): async begin/end spans per
//     request (unique id per request, so overlapping lifetimes render
//     as separate rows) and s/t/f flow steps enqueue → issue →
//     complete.
//
// Events are buffered in simulation order and written in one shot by
// Export; identical runs produce byte-identical output (locked in by
// the determinism regression test).
//
// The trace is a serialization point by design: events from every
// channel interleave into one buffer in simulation order.
type Trace struct {
	geom   addr.Geometry
	lanes  int
	events []traceEvent

	// Track metadata is recorded on first use and emitted (sorted) at
	// the head of the file.
	names map[[2]int]string // (pid, tid) → thread name
	procs map[int]string    // pid → process name

	lastCounterTick sim.Tick
	haveCounter     bool
}

// NewTrace builds a trace exporter for a geometry and bus-lane count.
func NewTrace(g addr.Geometry, lanes int) *Trace {
	if lanes < 1 {
		lanes = 1
	}
	return &Trace{
		geom:  g,
		lanes: lanes,
		names: make(map[[2]int]string),
		procs: make(map[int]string),
	}
}

func (t *Trace) tilePID(ch int) int { return 2*ch + 1 }
func (t *Trace) reqPID(ch int) int  { return 2*ch + 2 }

// tileTID maps a tile to its thread id within the channel's process.
func (t *Trace) tileTID(rank, bank, sag, cd int) int {
	g := t.geom
	return 1 + ((rank*g.Banks+bank)*g.SAGs+sag)*g.CDs + cd
}

// busTID maps a bus lane to a thread id above the tile range.
func (t *Trace) busTID(lane int) int {
	g := t.geom
	return 1 + g.Ranks*g.Banks*g.SAGs*g.CDs + lane
}

func (t *Trace) touchTile(ch, rank, bank, sag, cd int) (pid, tid int) {
	pid, tid = t.tilePID(ch), t.tileTID(rank, bank, sag, cd)
	key := [2]int{pid, tid}
	if _, ok := t.names[key]; !ok {
		t.names[key] = fmt.Sprintf("rk%d bk%d sag%d cd%d", rank, bank, sag, cd)
		t.procs[pid] = fmt.Sprintf("ch%d tiles", ch)
	}
	return pid, tid
}

func (t *Trace) touchBus(ch, lane int) (pid, tid int) {
	pid, tid = t.tilePID(ch), t.busTID(lane)
	key := [2]int{pid, tid}
	if _, ok := t.names[key]; !ok {
		t.names[key] = fmt.Sprintf("bus lane %d", lane)
		t.procs[pid] = fmt.Sprintf("ch%d tiles", ch)
	}
	return pid, tid
}

func (t *Trace) touchReq(ch int, write bool) (pid, tid int) {
	pid = t.reqPID(ch)
	tid = 1
	name := "reads"
	if write {
		tid, name = 2, "writes"
	}
	key := [2]int{pid, tid}
	if _, ok := t.names[key]; !ok {
		t.names[key] = name
		t.procs[pid] = fmt.Sprintf("ch%d requests", ch)
	}
	return pid, tid
}

// Command implements Sink: device commands become complete ("X")
// slices on their tile's (or bus lane's) track.
func (t *Trace) Command(ev Command) {
	var pid, tid int
	if ev.Kind == CmdBus {
		pid, tid = t.touchBus(ev.Bank.Channel, ev.CD)
	} else {
		pid, tid = t.touchTile(ev.Bank.Channel, ev.Bank.Rank, ev.Bank.Bank, ev.SAG, ev.CD)
	}
	t.events = append(t.events, traceEvent{
		Name: ev.Kind.String(),
		Cat:  "cmd",
		Ph:   "X",
		TS:   uint64(ev.Start),
		Dur:  uint64(ev.End - ev.Start),
		PID:  pid,
		TID:  tid,
		Args: &evtArgs{Row: ev.Row, Col: ev.Col, Req: ev.ReqID},
	})
}

// Request implements Sink: lifetimes become async begin/end spans plus
// a flow chain (s → t → f) so the enqueue-to-completion path of each
// request is a connected arrow in the viewer.
func (t *Trace) Request(ev RequestEvent) {
	pid, tid := t.touchReq(ev.Loc.Channel, ev.Write)
	id := fmt.Sprintf("0x%x", ev.ID)
	op := "RD"
	if ev.Write {
		op = "WR"
	}
	switch ev.Phase {
	case ReqEnqueued:
		t.events = append(t.events,
			traceEvent{Name: op, Cat: "req", Ph: "b", TS: uint64(ev.Now), PID: pid, TID: tid, ID: id,
				Args: &evtArgs{Row: ev.Loc.Row, Col: ev.Loc.Col, Req: ev.ID}},
			traceEvent{Name: "req", Cat: "flow", Ph: "s", TS: uint64(ev.Now), PID: pid, TID: tid, ID: id})
	case ReqIssued:
		t.events = append(t.events,
			traceEvent{Name: "req", Cat: "flow", Ph: "t", TS: uint64(ev.Now), PID: pid, TID: tid, ID: id})
	case ReqCompleted:
		t.events = append(t.events,
			traceEvent{Name: "req", Cat: "flow", Ph: "f", BP: "e", TS: uint64(ev.Now), PID: pid, TID: tid, ID: id},
			traceEvent{Name: op, Cat: "req", Ph: "e", TS: uint64(ev.Now), PID: pid, TID: tid, ID: id})
	}
}

// Stall implements Sink (stall cycles are aggregated by Attribution;
// emitting one event per stalled cycle would swamp the trace).
func (t *Trace) Stall(StallEvent) {}

// EngineSample records the simulation kernel's pending-event count as
// a counter track, at most once per tick. Wire it to sim.Engine's
// dispatch hook.
func (t *Trace) EngineSample(now sim.Tick, pending int) {
	if t.haveCounter && now == t.lastCounterTick {
		return
	}
	t.haveCounter, t.lastCounterTick = true, now
	t.procs[0] = "sim kernel"
	t.events = append(t.events, traceEvent{
		Name: "pending events", Cat: "kernel", Ph: "C",
		TS: uint64(now), PID: 0, TID: 0,
		Args: &evtArgs{Value: pending},
	})
}

// Export serializes the trace. Metadata (process and thread names,
// sorted by id) precedes the buffered events, which stay in simulation
// order.
func (t *Trace) Export(w io.Writer) error {
	head := make([]traceEvent, 0, len(t.procs)+len(t.names))
	pids := make([]int, 0, len(t.procs))
	for pid := range t.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		head = append(head, traceEvent{
			Name: "process_name", Ph: "M", PID: pid,
			Args: &evtArgs{Name: t.procs[pid]},
		})
	}
	keys := make([][2]int, 0, len(t.names))
	for k := range t.names {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		head = append(head, traceEvent{
			Name: "thread_name", Ph: "M", PID: k[0], TID: k[1],
			Args: &evtArgs{Name: t.names[k]},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{
		DisplayTimeUnit: "ns",
		TraceEvents:     append(head, t.events...),
	})
}

// Events returns the number of buffered trace events (excluding
// metadata).
func (t *Trace) Events() int { return len(t.events) }
