package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
)

// The oracle: the trace format's original definition as json-tagged
// structs encoded by encoding/json. Trace's arrival-time encoder must
// reproduce its bytes exactly.

// traceEvent is one entry of the Chrome trace-event format's JSON
// array form.
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

// evtArgs carries per-event details.
type evtArgs struct {
	Name  string `json:"name,omitempty"` // metadata payload
	Row   int    `json:"row,omitempty"`
	Col   int    `json:"col,omitempty"`
	Req   uint64 `json:"req,omitempty"`
	Value int    `json:"value,omitempty"` // counter payload
}

// traceFile is the top-level trace object.
type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// jsonOracle buffers traceEvents and encodes them with encoding/json.
// Its own Trace, which never records an event, does the track
// bookkeeping (ids and names); the oracle sorts the names itself, so
// the order of the Trace's metadata walk is checked independently.
type jsonOracle struct {
	tracks *Trace
	events []traceEvent

	lastCounterTick sim.Tick
	haveCounter     bool
}

func newJSONOracle() *jsonOracle { return &jsonOracle{tracks: NewTrace(pairGeom(), 2)} }

// pairGeom is the geometry a pair traces: testGeom on three channels
// and two ranks, so tracks past channel 0 and rank 0 are named, while
// the fuzzer's banks, SAGs and CDs still reach past the geometry.
func pairGeom() addr.Geometry {
	g := testGeom()
	g.Channels, g.Ranks = 3, 2
	return g
}

func (o *jsonOracle) Command(ev Command) {
	var pid, tid int
	if ev.Kind == CmdBus {
		pid, tid = o.tracks.touchBus(ev.Bank.Channel, ev.CD)
	} else {
		pid, tid = o.tracks.touchTile(ev.Bank.Channel, ev.Bank.Rank, ev.Bank.Bank, ev.SAG, ev.CD)
	}
	o.events = append(o.events, traceEvent{
		Name: ev.Kind.String(), Cat: "cmd", Ph: "X",
		TS: uint64(ev.Start), Dur: uint64(ev.End - ev.Start), PID: pid, TID: tid,
		Args: &evtArgs{Row: ev.Row, Col: ev.Col, Req: ev.ReqID},
	})
}

func (o *jsonOracle) Request(ev RequestEvent) {
	pid, tid := o.tracks.touchReq(ev.Loc.Channel, ev.Write)
	id := fmt.Sprintf("0x%x", ev.ID)
	op := "RD"
	if ev.Write {
		op = "WR"
	}
	switch ev.Phase {
	case ReqEnqueued:
		o.events = append(o.events,
			traceEvent{Name: op, Cat: "req", Ph: "b", TS: uint64(ev.Now), PID: pid, TID: tid, ID: id,
				Args: &evtArgs{Row: ev.Loc.Row, Col: ev.Loc.Col, Req: ev.ID}},
			traceEvent{Name: "req", Cat: "flow", Ph: "s", TS: uint64(ev.Now), PID: pid, TID: tid, ID: id})
	case ReqIssued:
		o.events = append(o.events,
			traceEvent{Name: "req", Cat: "flow", Ph: "t", TS: uint64(ev.Now), PID: pid, TID: tid, ID: id})
	case ReqCompleted:
		o.events = append(o.events,
			traceEvent{Name: "req", Cat: "flow", Ph: "f", BP: "e", TS: uint64(ev.Now), PID: pid, TID: tid, ID: id},
			traceEvent{Name: op, Cat: "req", Ph: "e", TS: uint64(ev.Now), PID: pid, TID: tid, ID: id})
	}
}

func (o *jsonOracle) EngineSample(now sim.Tick, pending int) {
	if o.haveCounter && now == o.lastCounterTick {
		return
	}
	o.haveCounter, o.lastCounterTick = true, now
	o.tracks.haveCounter = true
	o.events = append(o.events, traceEvent{
		Name: "pending events", Cat: "kernel", Ph: "C", TS: uint64(now),
		Args: &evtArgs{Value: pending},
	})
}

func (o *jsonOracle) Export() []byte {
	var procs, threads []traceEvent
	o.tracks.metadata(func(kind string, pid, tid int, name string) {
		ev := traceEvent{Name: kind, Ph: "M", PID: pid, TID: tid, Args: &evtArgs{Name: name}}
		if kind == "process_name" {
			procs = append(procs, ev)
		} else {
			threads = append(threads, ev)
		}
	})
	for _, evs := range [][]traceEvent{procs, threads} {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].PID != evs[j].PID {
				return evs[i].PID < evs[j].PID
			}
			return evs[i].TID < evs[j].TID
		})
	}
	head := append(append(make([]traceEvent, 0), procs...), threads...)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(traceFile{
		DisplayTimeUnit: "ns",
		TraceEvents:     append(head, o.events...),
	}); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// pair feeds every event to a Trace and to the oracle.
type pair struct {
	tr *Trace
	o  *jsonOracle
}

func newPair() pair { return pair{NewTrace(pairGeom(), 2), newJSONOracle()} }

func (p pair) command(ev Command)      { p.tr.Command(ev); p.o.Command(ev) }
func (p pair) request(ev RequestEvent) { p.tr.Request(ev); p.o.Request(ev) }
func (p pair) sample(now sim.Tick, pending int) {
	p.tr.EngineSample(now, pending)
	p.o.EngineSample(now, pending)
}

// check exports both and requires identical bytes and event counts.
func (p pair) check(t *testing.T) {
	t.Helper()
	var got bytes.Buffer
	if err := p.tr.Export(&got); err != nil {
		t.Fatal(err)
	}
	want := p.o.Export()
	if !bytes.Equal(got.Bytes(), want) {
		i := 0
		for i < got.Len() && i < len(want) && got.Bytes()[i] == want[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("encodings differ at byte %d of %d/%d:\n got  …%s\n want …%s",
			i, got.Len(), len(want), got.Bytes()[lo:min(got.Len(), i+80)], want[lo:min(len(want), i+80)])
	}
	if p.tr.Events() != len(p.o.events) {
		t.Fatalf("Events() = %d, oracle buffered %d", p.tr.Events(), len(p.o.events))
	}
	for i, c := range p.tr.chunks {
		if cap(c) != chunkBytes {
			t.Fatalf("chunk %d has capacity %d, want %d: it was regrown", i, cap(c), chunkBytes)
		}
	}
}

// TestTraceEncodingMatchesJSON compares the arrival-time encoder with
// the encoding/json oracle on the edge cases of the omitempty rules,
// the number ranges, every event kind, and chunk boundaries.
func TestTraceEncodingMatchesJSON(t *testing.T) {
	cases := []struct {
		name  string
		drive func(p pair)
	}{
		{"empty", func(pair) {}},
		{"metadata only", func(p pair) {
			for _, tr := range []*Trace{p.tr, p.o.tracks} {
				tr.touchTile(0, 0, 1, 2, 1)
				tr.touchBus(1, 0)
				tr.touchReq(0, true)
			}
		}},
		{"request id 0 and zero fields", func(p pair) {
			p.command(Command{Kind: CmdActivate})
			for ph := ReqEnqueued; ph <= ReqCompleted; ph++ {
				p.request(RequestEvent{Phase: ph})
				p.request(RequestEvent{Phase: ph, Write: true})
			}
			p.sample(0, 0)
		}},
		{"every kind and phase", func(p pair) {
			for k := CmdActivate; k <= CmdBus+1; k++ {
				p.command(Command{Kind: k, Bank: BankID{Rank: 1, Bank: 1}, SAG: 3, CD: 1,
					Row: 17, Col: 9, Start: 100, End: 130, ReqID: 0xbeef})
			}
			for ph := ReqEnqueued; ph <= ReqCompleted+1; ph++ {
				p.request(RequestEvent{Phase: ph, ID: 0xdeadbeef, Write: ph%2 == 0,
					Loc: addrLoc(1, 3, 5), Now: 77})
			}
		}},
		{"extreme numbers", func(p pair) {
			p.command(Command{Kind: CmdRead, Row: -1, Col: 1 << 62, Start: sim.MaxTick - 5, End: sim.MaxTick,
				ReqID: ^uint64(0)})
			p.command(Command{Kind: CmdWrite, Start: 10, End: 3}) // wraps, as uint64(End-Start) always did
			p.request(RequestEvent{Phase: ReqEnqueued, ID: ^uint64(0), Now: sim.MaxTick,
				Loc: addrLoc(0, -(1 << 62), -7)})
			p.sample(sim.MaxTick, -3)
		}},
		{"repeated engine samples", func(p pair) {
			p.sample(5, 1)
			p.sample(5, 2)
			p.sample(6, 0)
			p.sample(6, 9)
			p.sample(5, 4)
		}},
		{"multiple channels", func(p pair) {
			for ch := 0; ch < 3; ch++ {
				p.command(Command{Kind: CmdBus, Bank: BankID{Channel: ch}, CD: ch, Start: 1, End: 9})
				p.request(RequestEvent{Phase: ReqEnqueued, ID: uint64(ch), Loc: addrLoc(ch, 2, 4), Now: 3})
				p.request(RequestEvent{Phase: ReqCompleted, ID: uint64(ch), Loc: addrLoc(ch, 2, 4), Now: 9})
			}
		}},
		{"chunk boundaries", func(p pair) {
			for i := 0; i < 3*chunkBytes/100; i++ {
				p.command(Command{Kind: CommandKind(i % 4), CD: i % 2, SAG: i % 4, Row: i, Col: i % 16,
					Start: sim.Tick(i), End: sim.Tick(i + 30), ReqID: uint64(i)})
				p.request(RequestEvent{Phase: RequestPhase(i % 3), ID: uint64(i), Write: i%5 == 0, Now: sim.Tick(i)})
				p.sample(sim.Tick(i/2), i)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := newPair()
			c.drive(p)
			p.check(t)
		})
	}
	p := newPair()
	cases[len(cases)-1].drive(p)
	if len(p.tr.chunks) < 3 {
		t.Errorf("chunk-boundary case filled %d chunks, want several", len(p.tr.chunks))
	}
	// Its chunks, full of events, go back to the pool and serve the
	// traces that follow, which must still encode as the oracle does.
	p.tr.Release()
	p.tr.Release() // a second Release does nothing
	for _, c := range cases {
		t.Run("pooled/"+c.name, func(t *testing.T) {
			p := newPair()
			c.drive(p)
			p.check(t)
			p.tr.Release()
		})
	}

	// The largest event any input can produce must fit maxEventBytes:
	// a command, or the begin event of an enqueue, with every number
	// at its longest.
	const minInt = -1 << 63
	for _, record := range []func(*Trace){
		func(tr *Trace) {
			tr.Command(Command{Kind: CommandKind(255), Bank: BankID{Channel: minInt / 2, Rank: minInt, Bank: minInt},
				SAG: minInt, CD: minInt, Row: minInt, Col: minInt, End: sim.MaxTick, ReqID: ^uint64(0)})
		},
		func(tr *Trace) {
			tr.Request(RequestEvent{Phase: ReqEnqueued, ID: ^uint64(0), Write: true, Now: sim.MaxTick,
				Loc: addr.Location{Channel: minInt / 2, Row: minInt, Col: minInt}})
		},
	} {
		tr := NewTrace(testGeom(), 2)
		record(tr)
		for _, ev := range bytes.SplitAfter(tr.chunks[0][1:], []byte("},")) {
			if len(ev) >= maxEventBytes {
				t.Errorf("event %s takes %d bytes, maxEventBytes = %d", ev, len(ev), maxEventBytes)
			}
		}
	}
}

// TestTraceMetadataMultiRank pins the Perfetto bytes of a fixed event
// script on a geometry no simulator digest traces: three channels, two
// ranks and three bus lanes. A track-naming error that shows only past
// rank 0, channel 0 or lane 1 changes the digest. Channel 2 carries
// requests but no commands, and only channel 0 carries writes, so the
// per-channel process names are pinned one by one.
func TestTraceMetadataMultiRank(t *testing.T) {
	g := addr.Geometry{
		Channels: 3, Ranks: 2, Banks: 4,
		Rows: 64, Cols: 16, LineBytes: 64,
		SAGs: 4, CDs: 2,
	}
	tr := NewTrace(g, 3)
	for i := 0; i < 120; i++ {
		now := sim.Tick(10 * i)
		bank := BankID{Channel: i % 2, Rank: i / 2 % 2, Bank: i / 5 % 4}
		tr.Command(Command{Kind: CommandKind(i % 3), Bank: bank, SAG: i / 3 % 4, CD: i / 7 % 2,
			Row: i, Col: i % 16, Start: now, End: now + 25, ReqID: uint64(i)})
		if i%4 == 0 {
			tr.Command(Command{Kind: CmdBus, Bank: bank, CD: i / 4 % 3, Row: i, Start: now + 5, End: now + 9, ReqID: uint64(i)})
		}
		loc := addr.Location{Channel: 2 * (i % 2), Row: i, Col: i % 16}
		tr.Request(RequestEvent{Phase: RequestPhase(i % 3), ID: uint64(i / 3), Write: loc.Channel == 0 && i%6 < 3,
			Loc: loc, Now: now})
		tr.EngineSample(now/20, i%9)
	}
	h := sha256.New()
	if err := tr.Export(h); err != nil {
		t.Fatal(err)
	}
	const want = "ddaae3bb5da8d0f2adee2529ade85bf1e0e22a2ea06effb508c8e1a24880a1cf"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("trace sha256 = %s, want %s", got, want)
	}
}

// addrLoc builds a request location on a channel.
func addrLoc(ch, row, col int) addr.Location {
	return addr.Location{Channel: ch, Row: row, Col: col}
}

// FuzzTraceEncoding decodes arbitrary bytes into an event sequence and
// requires the trace's bytes to equal the oracle's.
func FuzzTraceEncoding(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(bytes.Repeat([]byte{1, 0xff, 0x80, 0, 7, 2, 2, 9}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := newPair()
		r := fuzzReader(data)
		for len(r) > 0 {
			switch r.byte() % 4 {
			case 0:
				p.command(Command{Kind: CommandKind(r.byte() % 6),
					Bank: BankID{Channel: int(r.byte() % 3), Rank: int(r.byte() % 2), Bank: int(r.byte() % 4)},
					SAG:  int(r.byte() % 8), CD: int(r.byte() % 4), Row: int(int64(r.u64())), Col: int(int64(r.u64())),
					Start: sim.Tick(r.u64()), End: sim.Tick(r.u64()), ReqID: r.u64()})
			case 1:
				p.request(RequestEvent{Phase: RequestPhase(r.byte() % 4), ID: r.u64(), Write: r.byte()%2 == 1,
					Loc: addrLoc(int(r.byte()%3), int(int64(r.u64())), int(int64(r.u64()))), Now: sim.Tick(r.u64())})
			case 2:
				p.sample(sim.Tick(r.byte()%4), int(int64(r.u64())))
			case 3:
				p.sample(sim.Tick(r.u64()), int(r.byte()))
			}
		}
		p.check(t)
	})
}

// fuzzReader hands out fuzz bytes; reads past the end return zeros.
type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// u64 reads a varying-width little-endian number: a length byte picks
// 0, 1, 2, 4 or 8 bytes, so small and extreme values are both common.
func (r *fuzzReader) u64() uint64 {
	var buf [8]byte
	n := [...]int{0, 1, 2, 4, 8}[r.byte()%5]
	for i := 0; i < n; i++ {
		buf[i] = r.byte()
	}
	return binary.LittleEndian.Uint64(buf[:])
}
