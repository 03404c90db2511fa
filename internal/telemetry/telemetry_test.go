package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/addr"
)

func testGeom() addr.Geometry {
	return addr.Geometry{
		Channels: 1, Ranks: 1, Banks: 2,
		Rows: 64, Cols: 16, LineBytes: 64,
		SAGs: 4, CDs: 2,
	}
}

// countingSink counts calls per hook.
type countingSink struct{ cmd, req int }

func (c *countingSink) Command(Command)      { c.cmd++ }
func (c *countingSink) Request(RequestEvent) { c.req++ }

func TestFanoutBroadcastsAndCompacts(t *testing.T) {
	a, b := &countingSink{}, &countingSink{}
	f := Fanout{a, b}
	f.Command(Command{})
	f.Request(RequestEvent{})
	for _, s := range []*countingSink{a, b} {
		if s.cmd != 1 || s.req != 1 {
			t.Errorf("sink saw %d/%d events, want 1/1", s.cmd, s.req)
		}
	}
	if got := (Fanout{}).Compact(); got != nil {
		t.Errorf("empty fanout compacts to %v, want nil", got)
	}
	if got := (Fanout{a}).Compact(); got != Sink(a) {
		t.Error("single-element fanout should compact to the element")
	}
	if got := f.Compact(); len(got.(Fanout)) != 2 {
		t.Error("multi-element fanout should compact to itself")
	}
}

func TestStallCauseNames(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < NumStallCauses; i++ {
		name := StallCause(i).String()
		if strings.Contains(name, "StallCause(") {
			t.Errorf("cause %d has no name", i)
		}
		if seen[name] {
			t.Errorf("duplicate cause name %q", name)
		}
		seen[name] = true
	}
	if s := StallCause(200).String(); !strings.Contains(s, "200") {
		t.Errorf("out-of-range cause String = %q", s)
	}
}

func TestAttributionAggregates(t *testing.T) {
	a := NewAttribution(testGeom())
	// Two single cycles, one fast-forwarded window of weight 4, and one
	// queue-full rejection; lifecycle events carry no stall cycles.
	a.Stall(StallSAGConflict, 1)
	a.Stall(StallBusConflict, 1)
	a.Stall(StallWriteDrain, 4)
	a.Stall(StallQueueFull, 1)
	a.Request(RequestEvent{Phase: ReqCompleted, ID: 1})

	causes := a.Causes()
	if causes[StallSAGConflict] != 1 || causes[StallBusConflict] != 1 ||
		causes[StallWriteDrain] != 4 || causes[StallQueueFull] != 1 {
		t.Errorf("causes = %v", causes)
	}
}

func TestOccupancyMatrix(t *testing.T) {
	o := NewOccupancy(testGeom())
	o.Command(Command{Kind: CmdActivate, SAG: 0, CD: 0, Start: 10, End: 30})
	o.Command(Command{Kind: CmdRead, SAG: 0, CD: 0, Start: 30, End: 40})
	o.Command(Command{Kind: CmdWrite, SAG: 2, CD: 1, Start: 0, End: 100})
	o.Command(Command{Kind: CmdBus, CD: 0, Start: 0, End: 1000}) // not a tile
	m := o.Matrix()
	if m[0][0] != 30 || m[2][1] != 100 {
		t.Errorf("matrix = %v", m)
	}
}

func TestTraceExportShape(t *testing.T) {
	tr := NewTrace(testGeom(), 2)
	tr.Command(Command{Kind: CmdActivate, SAG: 1, CD: 0, Row: 5, Start: 10, End: 40})
	tr.Command(Command{Kind: CmdBus, CD: 1, ReqID: 7, Start: 40, End: 48})
	tr.Request(RequestEvent{Phase: ReqEnqueued, ID: 7, Now: 5})
	tr.Request(RequestEvent{Phase: ReqIssued, ID: 7, Now: 10})
	tr.Request(RequestEvent{Phase: ReqCompleted, ID: 7, Now: 48})
	tr.EngineSample(10, 3)
	tr.EngineSample(10, 2) // same tick: dropped
	tr.EngineSample(11, 2)

	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, ev := range file.TraceEvents {
		phases[ev.Ph]++
	}
	if phases["X"] != 2 || phases["b"] != 1 || phases["e"] != 1 || phases["C"] != 2 {
		t.Errorf("phase counts = %v", phases)
	}
	if phases["M"] == 0 {
		t.Error("no metadata events")
	}
	// Metadata must precede all payload events.
	lastMeta, firstPayload := -1, len(file.TraceEvents)
	for i, ev := range file.TraceEvents {
		if ev.Ph == "M" {
			lastMeta = i
		} else if i < firstPayload {
			firstPayload = i
		}
	}
	if lastMeta > firstPayload {
		t.Error("metadata interleaved with payload events")
	}
	// 2 slices + (b,s) + t + (f,e) + 2 counters = 9 payload events.
	if got := tr.Events(); got != 9 {
		t.Errorf("Events() = %d, want 9", got)
	}
}

// TestTraceExportDeterministic re-exports the same event sequence into
// fresh Trace values and requires byte-identical output (map iteration
// must not leak into the encoding).
func TestTraceExportDeterministic(t *testing.T) {
	build := func() []byte {
		tr := NewTrace(testGeom(), 2)
		for i := 0; i < 20; i++ {
			tr.Command(Command{Kind: CmdActivate, SAG: i % 4, CD: i % 2, Start: 0, End: 10})
			tr.Command(Command{Kind: CmdBus, CD: i % 2, Start: 10, End: 12})
			tr.Request(RequestEvent{Phase: ReqEnqueued, ID: uint64(i), Now: 0})
			tr.Request(RequestEvent{Phase: ReqCompleted, ID: uint64(i), Now: 20})
		}
		var buf bytes.Buffer
		if err := tr.Export(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Error("identical event sequences exported different bytes")
	}
}
