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
	"sync"

	"repro/internal/addr"
	"repro/internal/invariant"
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

// chunkPool holds released chunks for the next trace's buf. A chunk
// restarts at length 0, so only the bytes its new trace appends are
// ever read.
var chunkPool = sync.Pool{New: func() any { return new([chunkBytes]byte) }}

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
// into the current chunk of a list of fixed-size byte chunks: one
// constant head per event kind, then the numbers, appended with
// strconv, then the track's pid and tid, copied from
// the bytes formatted at the track's first event. The two events of an
// enqueue (b, s) and of a completion (f, e) share ts, pid, tid and id,
// which the second copies from the first. A track's first event also
// marks its slot in a dense seen table: that is all a run does for
// track metadata. Export formats the process and thread names of the
// seen tracks from their slots, then writes the chunks in order.
// Chunks come from a process-wide pool, and Release returns them once
// the trace is exported.
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

	// seen holds, per track slot, where the track's `,"pid":P,"tid":T`
	// bytes start in trackBytes (their length is the byte before), or 0
	// while the track carries no event. Slots run per channel over the
	// tile tids, the bus-lane tids, then the reads and writes tracks, at
	// seenStride slots each, so slot order is (pid, tid) order.
	// Coordinates outside the geometry have no slot, and their tracks
	// get no metadata.
	seen       []int32
	seenStride int
	trackBytes []byte
	tracks     int // marked slots

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
	slots := g.Channels * stride
	return &Trace{
		geom:       g,
		tiles:      tiles,
		lanes:      lanes,
		seen:       make([]int32, slots),
		seenStride: stride,
		// A track's bytes take about 20 with their length: room for the
		// tracks of an 8-bank 8×2 channel before any regrowth.
		trackBytes: make([]byte, 0, 24*min(slots, 256)),
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

// slot returns the seen-table index of slot i of channel ch, or -1 for
// a channel outside the geometry.
func (t *Trace) slot(ch, i int) int {
	if uint(ch) < uint(t.geom.Channels) {
		return ch*t.seenStride + i
	}
	return -1
}

// inGrid reports whether every coordinate of a tile lies inside the
// geometry, so its tid names that tile and no other.
func (t *Trace) inGrid(rank, bank, sag, cd int) bool {
	g := t.geom
	return uint(rank) < uint(g.Ranks) && uint(bank) < uint(g.Banks) &&
		uint(sag) < uint(g.SAGs) && uint(cd) < uint(g.CDs)
}

// tileTrack, busTrack and reqTrack return a track's pid, tid and
// seen-table index (-1 when a coordinate lies outside the geometry).
func (t *Trace) tileTrack(ch, rank, bank, sag, cd int) (pid, tid, slot int) {
	pid, tid, slot = t.tilePID(ch), t.tileTID(rank, bank, sag, cd), -1
	if t.inGrid(rank, bank, sag, cd) {
		slot = t.slot(ch, tid-1)
	}
	return pid, tid, slot
}

func (t *Trace) busTrack(ch, lane int) (pid, tid, slot int) {
	pid, tid, slot = t.tilePID(ch), t.busTID(lane), -1
	if uint(lane) < uint(t.lanes) {
		slot = t.slot(ch, tid-1)
	}
	return pid, tid, slot
}

func (t *Trace) reqTrack(ch int, write bool) (pid, tid, slot int) {
	pid, tid = t.reqPID(ch), 1
	if write {
		tid = 2
	}
	return pid, tid, t.slot(ch, t.seenStride-3+tid)
}

// touch marks the track at seen-table index slot as carrying an event
// and returns its `,"pid":P,"tid":T` bytes, formatted the first time
// and copied from trackBytes after. A track without a slot marks
// nothing and gets nil.
func (t *Trace) touch(slot, pid, tid int) []byte {
	if slot < 0 {
		return nil
	}
	at := t.seen[slot]
	if at == 0 {
		t.trackBytes = append(t.trackBytes, 0)
		at = int32(len(t.trackBytes))
		t.trackBytes = appendPIDTID(t.trackBytes, pid, tid)
		t.trackBytes[at-1] = byte(len(t.trackBytes) - int(at))
		t.seen[slot] = at
		t.tracks++
	}
	return t.trackBytes[at : at+int32(t.trackBytes[at-1])]
}

// appendTrack appends a track's pid and tid: the bytes touch returned,
// or, for a track without a slot, freshly formatted ones.
func appendTrack(b, track []byte, pid, tid int) []byte {
	if track != nil {
		return append(b, track...)
	}
	return appendPIDTID(b, pid, tid)
}

// metadata calls fn for every metadata event of the trace in file
// order: the process names by ascending pid, then the thread names by
// ascending (pid, tid). Each is a function of a seen slot (and of
// whether a counter sample exists), formatted only here.
func (t *Trace) metadata(fn func(kind string, pid, tid int, name string)) {
	g, tiles := t.geom, t.tiles
	marked := func(at int32) bool { return at != 0 }
	if t.haveCounter {
		fn("process_name", 0, 0, "sim kernel")
	}
	for ch := 0; ch < g.Channels; ch++ {
		row := t.seen[ch*t.seenStride : (ch+1)*t.seenStride]
		if slices.ContainsFunc(row[:tiles+t.lanes], marked) {
			fn("process_name", t.tilePID(ch), 0, fmt.Sprintf("ch%d tiles", ch))
		}
		if slices.ContainsFunc(row[tiles+t.lanes:], marked) {
			fn("process_name", t.reqPID(ch), 0, fmt.Sprintf("ch%d requests", ch))
		}
	}
	for ch := 0; ch < g.Channels; ch++ {
		for slot, at := range t.seen[ch*t.seenStride : (ch+1)*t.seenStride] {
			switch {
			case at == 0:
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

// Event heads: every event kind's bytes from its leading comma through
// `"ts":`, so an event opens with one copy.
var (
	cmdHeads = [...]string{
		CmdActivate: `,{"name":"ACT","cat":"cmd","ph":"X","ts":`,
		CmdRead:     `,{"name":"RD","cat":"cmd","ph":"X","ts":`,
		CmdWrite:    `,{"name":"WR","cat":"cmd","ph":"X","ts":`,
		CmdBus:      `,{"name":"BUS","cat":"cmd","ph":"X","ts":`,
	}
	// spanHeads[write][end] open a request's async begin or end event.
	spanHeads = [2][2]string{
		{`,{"name":"RD","cat":"req","ph":"b","ts":`, `,{"name":"RD","cat":"req","ph":"e","ts":`},
		{`,{"name":"WR","cat":"req","ph":"b","ts":`, `,{"name":"WR","cat":"req","ph":"e","ts":`},
	}
)

const (
	flowStartHead = `,{"name":"req","cat":"flow","ph":"s","ts":`
	flowStepHead  = `,{"name":"req","cat":"flow","ph":"t","ts":`
	flowEndHead   = `,{"name":"req","cat":"flow","ph":"f","ts":`
	counterHead   = `,{"name":"pending events","cat":"kernel","ph":"C","ts":`
)

// Command implements Sink: device commands become complete ("X")
// slices on their tile's (or bus lane's) track.
func (t *Trace) Command(ev Command) {
	ch := ev.Bank.Channel
	var pid, tid, slot int
	if ev.Kind == CmdBus {
		pid, tid, slot = t.busTrack(ch, ev.CD)
	} else {
		pid, tid, slot = t.tileTrack(ch, ev.Bank.Rank, ev.Bank.Bank, ev.SAG, ev.CD)
	}
	track := t.touch(slot, pid, tid)
	b := t.buf()
	if int(ev.Kind) < len(cmdHeads) {
		b = append(b, cmdHeads[ev.Kind]...)
	} else {
		b = append(append(append(b, `,{"name":"`...), ev.Kind.String()...), `","cat":"cmd","ph":"X","ts":`...)
	}
	b = strconv.AppendUint(b, uint64(ev.Start), 10)
	if dur := uint64(ev.End - ev.Start); dur != 0 {
		b = strconv.AppendUint(append(b, `,"dur":`...), dur, 10)
	}
	b = appendArgs(appendTrack(b, track, pid, tid), "", ev.Row, ev.Col, ev.ReqID, 0)
	t.done(append(b, '}'))
}

// Request implements Sink: lifetimes become async begin/end spans plus
// a flow chain (s → t → f) so the enqueue-to-completion path of each
// request is a connected arrow in the viewer.
func (t *Trace) Request(ev RequestEvent) {
	pid, tid, slot := t.reqTrack(ev.Loc.Channel, ev.Write)
	track := t.touch(slot, pid, tid)
	heads := &spanHeads[0]
	if ev.Write {
		heads = &spanHeads[1]
	}
	switch ev.Phase {
	case ReqEnqueued:
		b, shared := t.reqEvent(heads[0], ev.Now, track, pid, tid, ev.ID)
		b = appendArgs(b, "", ev.Loc.Row, ev.Loc.Col, ev.ID, 0)
		t.done(append(b, '}'))
		b = append(append(t.buf(), flowStartHead...), shared...)
		t.done(append(b, '}'))
	case ReqIssued:
		b, _ := t.reqEvent(flowStepHead, ev.Now, track, pid, tid, ev.ID)
		t.done(append(b, '}'))
	case ReqCompleted:
		b, shared := t.reqEvent(flowEndHead, ev.Now, track, pid, tid, ev.ID)
		t.done(append(b, `,"bp":"e"}`...))
		b = append(append(t.buf(), heads[1]...), shared...)
		t.done(append(b, '}'))
	}
}

// reqEvent opens a request event with head and the fields every event
// of one request step shares: ts, pid, tid and id. It returns the
// current chunk and those fields' bytes, which the step's second event
// copies. They stay valid after a later buf starts a new chunk, since
// a chunk is never reused before Release.
func (t *Trace) reqEvent(head string, now sim.Tick, track []byte, pid, tid int, id uint64) (b, shared []byte) {
	b = append(t.buf(), head...)
	at := len(b)
	b = appendID(appendTrack(strconv.AppendUint(b, uint64(now), 10), track, pid, tid), id)
	return b, b[at:]
}

// EngineSample records the simulation kernel's pending-event count as
// a counter track, at most once per tick. Wire it to sim.Engine's
// dispatch hook.
func (t *Trace) EngineSample(now sim.Tick, pending int) {
	if t.haveCounter && now == t.lastCounterTick {
		return
	}
	t.haveCounter, t.lastCounterTick = true, now
	b := strconv.AppendUint(append(t.buf(), counterHead...), uint64(now), 10)
	b = appendArgs(append(b, `,"pid":0,"tid":0`...), "", 0, 0, 0, pending)
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
	t.chunks = append(t.chunks, chunkPool.Get().(*[chunkBytes]byte)[:0])
	return t.chunks[len(t.chunks)-1]
}

// Release returns the trace's chunks to the pool that later traces
// draw from. The trace must not be used afterwards; Export the events
// first. A second Release does nothing.
func (t *Trace) Release() {
	for _, c := range t.chunks {
		p := (*[chunkBytes]byte)(c[:chunkBytes])
		if invariant.Enabled {
			for i := range p {
				p[i] = 0xa5 // a byte no encoded event holds
			}
		}
		chunkPool.Put(p)
	}
	t.chunks = nil
}

// done stores the current chunk back after one event was appended.
func (t *Trace) done(b []byte) {
	t.chunks[len(t.chunks)-1] = b
	t.events++
}

// appendPIDTID appends `,"pid":P,"tid":T`.
func appendPIDTID(b []byte, pid, tid int) []byte {
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(pid), 10)
	return strconv.AppendInt(append(b, `,"tid":`...), int64(tid), 10)
}

// appendID appends a request id as the hex string the viewer pairs
// async and flow events by.
func appendID(b []byte, id uint64) []byte {
	return append(strconv.AppendUint(append(b, `,"id":"0x`...), id, 16), '"')
}

// appendArgs appends an args object holding the non-zero fields among
// name, row, col, req and value, in that order ("args":{} when all are
// zero). Strings are written raw: every one is built in this file from
// characters JSON does not escape.
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
	// A metadata event takes under 100 bytes on the paper's geometry;
	// head grows past that estimate if it must.
	head := make([]byte, 0, 64+96*(t.tracks+2*t.geom.Channels+1))
	head = append(head, `{"displayTimeUnit":"ns","traceEvents":[`...)
	open := len(head)
	t.metadata(func(kind string, pid, tid int, name string) {
		head = append(append(append(head, `,{"name":"`...), kind...), `","ph":"M","ts":0`...)
		head = append(appendArgs(appendPIDTID(head, pid, tid), name, 0, 0, 0, 0), '}')
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
