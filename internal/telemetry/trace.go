// Chrome trace-event / Perfetto JSON export: one track per (bank, SAG,
// CD) tile resource and per bus lane, plus request-lifetime flow
// events, so a simulation run can be opened in ui.perfetto.dev or
// chrome://tracing.

package telemetry

import (
	"fmt"
	"io"
	"slices"
	"strconv"

	"repro/internal/addr"
	"repro/internal/sim"
)

// chunkBytes is the size of one encoded-event chunk, and maxEventBytes
// bounds one encoded event: every string field comes from a fixed set
// of at most 16 bytes and every number is at most 20 digits and a sign,
// so a command slice, the largest event, stays under 300 bytes. A new
// chunk starts whenever fewer than maxEventBytes remain in the current
// one, so no chunk is ever regrown or copied.
const (
	chunkBytes    = 64 << 10
	maxEventBytes = 512
)

// Trace records simulation events and serializes them as Chrome
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
// Each event is encoded to JSON when it arrives, preceded by a comma,
// into the current chunk of a list of fixed-size byte chunks, and
// marks its track's slot in a dense seen table: that is all a run does
// for track metadata. Export formats the process and thread names of
// the seen tracks from their slots, then writes the chunks in order.
// The encoding is byte-identical to encoding/json over a struct with
// the fields name, cat, ph, ts, dur, pid, tid, id, bp and args (in
// that order; cat, dur, id, bp and every zero args field omitted, args
// itself always present where the event carries it), which is how the
// tests check it. Identical runs produce byte-identical output (locked
// in by the determinism regression test).
//
// The trace is a serialization point by design: events from every
// channel interleave into one stream in simulation order.
type Trace struct {
	geom   addr.Geometry
	tiles  int // tile tracks per channel, Ranks·Banks·SAGs·CDs
	lanes  int
	chunks [][]byte // encoded events, each with its leading comma
	events int

	// seen marks the tracks that carry an event: per channel, the
	// tile tids, the bus-lane tids, then the reads and writes tracks,
	// at seenStride slots each, so slot order is (pid, tid) order.
	// Coordinates outside the geometry mark nothing, and their tracks
	// get no metadata.
	seen       []bool
	seenStride int

	lastCounterTick sim.Tick
	haveCounter     bool
}

// NewTrace builds a trace exporter for a geometry and bus-lane count.
func NewTrace(g addr.Geometry, lanes int) *Trace {
	if lanes < 1 {
		lanes = 1
	}
	tiles := g.Ranks * g.Banks * g.SAGs * g.CDs
	stride := tiles + lanes + 2
	return &Trace{
		geom:       g,
		tiles:      tiles,
		lanes:      lanes,
		seen:       make([]bool, g.Channels*stride),
		seenStride: stride,
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
func (t *Trace) busTID(lane int) int { return 1 + t.tiles + lane }

// mark records that the track in slot of channel ch carries an event.
// A channel outside the geometry marks nothing.
func (t *Trace) mark(ch, slot int) {
	if uint(ch) < uint(t.geom.Channels) {
		t.seen[ch*t.seenStride+slot] = true
	}
}

// inGrid reports whether every coordinate of a tile lies inside the
// geometry, so its tid names that tile and no other.
func (t *Trace) inGrid(rank, bank, sag, cd int) bool {
	g := t.geom
	return uint(rank) < uint(g.Ranks) && uint(bank) < uint(g.Banks) &&
		uint(sag) < uint(g.SAGs) && uint(cd) < uint(g.CDs)
}

func (t *Trace) touchTile(ch, rank, bank, sag, cd int) (pid, tid int) {
	pid, tid = t.tilePID(ch), t.tileTID(rank, bank, sag, cd)
	if t.inGrid(rank, bank, sag, cd) {
		t.mark(ch, tid-1)
	}
	return pid, tid
}

func (t *Trace) touchBus(ch, lane int) (pid, tid int) {
	pid, tid = t.tilePID(ch), t.busTID(lane)
	if uint(lane) < uint(t.lanes) {
		t.mark(ch, tid-1)
	}
	return pid, tid
}

func (t *Trace) touchReq(ch int, write bool) (pid, tid int) {
	pid, tid = t.reqPID(ch), 1
	if write {
		tid = 2
	}
	t.mark(ch, t.seenStride-3+tid)
	return pid, tid
}

// metadata calls fn for every metadata event of the trace in file
// order: the process names by ascending pid, then the thread names by
// ascending (pid, tid). Each is a function of a seen slot (and of
// whether a counter sample exists), formatted only here.
func (t *Trace) metadata(fn func(kind string, pid, tid int, name string)) {
	g, tiles := t.geom, t.tiles
	if t.haveCounter {
		fn("process_name", 0, 0, "sim kernel")
	}
	for ch := 0; ch < g.Channels; ch++ {
		row := t.seen[ch*t.seenStride : (ch+1)*t.seenStride]
		if slices.Contains(row[:tiles+t.lanes], true) {
			fn("process_name", t.tilePID(ch), 0, fmt.Sprintf("ch%d tiles", ch))
		}
		if slices.Contains(row[tiles+t.lanes:], true) {
			fn("process_name", t.reqPID(ch), 0, fmt.Sprintf("ch%d requests", ch))
		}
	}
	for ch := 0; ch < g.Channels; ch++ {
		for slot, ok := range t.seen[ch*t.seenStride : (ch+1)*t.seenStride] {
			switch {
			case !ok:
			case slot < tiles:
				cd, sag, bank := slot%g.CDs, slot/g.CDs%g.SAGs, slot/(g.CDs*g.SAGs)%g.Banks
				rank := slot / (g.CDs * g.SAGs * g.Banks)
				fn("thread_name", t.tilePID(ch), slot+1, fmt.Sprintf("rk%d bk%d sag%d cd%d", rank, bank, sag, cd))
			case slot < tiles+t.lanes:
				fn("thread_name", t.tilePID(ch), slot+1, fmt.Sprintf("bus lane %d", slot-tiles))
			case slot == t.seenStride-2:
				fn("thread_name", t.reqPID(ch), 1, "reads")
			default:
				fn("thread_name", t.reqPID(ch), 2, "writes")
			}
		}
	}
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
	b := appendEvent(t.buf(), ev.Kind.String(), "cmd", "X", ev.Start, uint64(ev.End-ev.Start), pid, tid)
	b = appendArgs(b, "", ev.Row, ev.Col, ev.ReqID, 0)
	t.done(append(b, '}'))
}

// Request implements Sink: lifetimes become async begin/end spans plus
// a flow chain (s → t → f) so the enqueue-to-completion path of each
// request is a connected arrow in the viewer.
func (t *Trace) Request(ev RequestEvent) {
	pid, tid := t.touchReq(ev.Loc.Channel, ev.Write)
	op := "RD"
	if ev.Write {
		op = "WR"
	}
	switch ev.Phase {
	case ReqEnqueued:
		b := appendID(appendEvent(t.buf(), op, "req", "b", ev.Now, 0, pid, tid), ev.ID)
		b = appendArgs(b, "", ev.Loc.Row, ev.Loc.Col, ev.ID, 0)
		t.done(append(b, '}'))
		t.flow("s", "", ev.Now, pid, tid, ev.ID)
	case ReqIssued:
		t.flow("t", "", ev.Now, pid, tid, ev.ID)
	case ReqCompleted:
		t.flow("f", "e", ev.Now, pid, tid, ev.ID)
		b := appendID(appendEvent(t.buf(), op, "req", "e", ev.Now, 0, pid, tid), ev.ID)
		t.done(append(b, '}'))
	}
}

// flow records one step of a request's flow chain.
func (t *Trace) flow(ph, bp string, now sim.Tick, pid, tid int, id uint64) {
	b := appendID(appendEvent(t.buf(), "req", "flow", ph, now, 0, pid, tid), id)
	if bp != "" {
		b = append(b, `,"bp":"`...)
		b = append(b, bp...)
		b = append(b, '"')
	}
	t.done(append(b, '}'))
}

// EngineSample records the simulation kernel's pending-event count as
// a counter track, at most once per tick. Wire it to sim.Engine's
// dispatch hook.
func (t *Trace) EngineSample(now sim.Tick, pending int) {
	if t.haveCounter && now == t.lastCounterTick {
		return
	}
	t.haveCounter, t.lastCounterTick = true, now
	b := appendEvent(t.buf(), "pending events", "kernel", "C", now, 0, 0, 0)
	b = appendArgs(b, "", 0, 0, 0, pending)
	t.done(append(b, '}'))
}

// buf returns the current chunk, starting a new one when fewer than
// maxEventBytes remain, so the event about to be appended fits.
func (t *Trace) buf() []byte {
	if n := len(t.chunks); n > 0 {
		if c := t.chunks[n-1]; cap(c)-len(c) >= maxEventBytes {
			return c
		}
	}
	t.chunks = append(t.chunks, make([]byte, 0, chunkBytes))
	return t.chunks[len(t.chunks)-1]
}

// done stores the current chunk back after one event was appended.
func (t *Trace) done(b []byte) {
	t.chunks[len(t.chunks)-1] = b
	t.events++
}

// appendEvent appends a comma and an event object's fields from name
// through tid, leaving the object open for id, bp and args. Strings are
// written raw: every one is built in this file from characters JSON
// does not escape.
func appendEvent(b []byte, name, cat, ph string, ts sim.Tick, dur uint64, pid, tid int) []byte {
	b = append(b, `,{"name":"`...)
	b = append(b, name...)
	if cat != "" {
		b = append(b, `","cat":"`...)
		b = append(b, cat...)
	}
	b = append(b, `","ph":"`...)
	b = append(b, ph...)
	b = append(b, `","ts":`...)
	b = strconv.AppendUint(b, uint64(ts), 10)
	if dur != 0 {
		b = append(b, `,"dur":`...)
		b = strconv.AppendUint(b, dur, 10)
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	return strconv.AppendInt(b, int64(tid), 10)
}

// appendID appends a request id as the hex string the viewer pairs
// async and flow events by.
func appendID(b []byte, id uint64) []byte {
	b = append(b, `,"id":"0x`...)
	b = strconv.AppendUint(b, id, 16)
	return append(b, '"')
}

// appendArgs appends an args object holding the non-zero fields among
// name, row, col, req and value, in that order ("args":{} when all are
// zero).
func appendArgs(b []byte, name string, row, col int, req uint64, value int) []byte {
	b = append(b, `,"args":{`...)
	open := len(b)
	if name != "" {
		b = argKey(b, open, `"name":"`)
		b = append(b, name...)
		b = append(b, '"')
	}
	if row != 0 {
		b = strconv.AppendInt(argKey(b, open, `"row":`), int64(row), 10)
	}
	if col != 0 {
		b = strconv.AppendInt(argKey(b, open, `"col":`), int64(col), 10)
	}
	if req != 0 {
		b = strconv.AppendUint(argKey(b, open, `"req":`), req, 10)
	}
	if value != 0 {
		b = strconv.AppendInt(argKey(b, open, `"value":`), int64(value), 10)
	}
	return append(b, '}')
}

// argKey appends an args key, after a comma unless it is the first
// field of the object that opened at open.
func argKey(b []byte, open int, key string) []byte {
	if len(b) > open {
		b = append(b, ',')
	}
	return append(b, key...)
}

// Export serializes the trace: track metadata (process and thread
// names, in id order) first, then the recorded events in simulation
// order. It may be called more than once.
func (t *Trace) Export(w io.Writer) error {
	// Timestamps are in simulated controller cycles, not microseconds;
	// displayTimeUnit only affects the viewer's axis labels.
	head := []byte(`{"displayTimeUnit":"ns","traceEvents":[`)
	open := len(head)
	t.metadata(func(kind string, pid, tid int, name string) {
		head = appendEvent(head, kind, "", "M", 0, 0, pid, tid)
		head = append(appendArgs(head, name, 0, 0, 0, 0), '}')
	})
	// Every event carries a leading comma; the array's first one drops
	// it.
	skip := 1
	if len(head) > open {
		head = append(head[:open], head[open+1:]...)
		skip = 0
	}
	if _, err := w.Write(head); err != nil {
		return err
	}
	for _, c := range t.chunks {
		if _, err := w.Write(c[skip:]); err != nil {
			return err
		}
		skip = 0
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// Events returns the number of recorded trace events (excluding
// metadata).
func (t *Trace) Events() int { return t.events }
