package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layer names one span kind the traced pass records. Every span but
// layerOp is opened by the replica around a call into one layer's
// public functions.
type layer uint8

const (
	layerOp         layer = iota // one replica run, root of its spans
	layerSetup                   // stack construction and LLC warm-up
	layerSim                     // Engine.RunUntil, completion callbacks included
	layerCPU                     // Core.Cycle
	layerTrace                   // Stream.Next
	layerController              // Controller.Cycle (bank models included)
	layerEnqueue                 // MemorySystem.Enqueue from a core
	layerFF                      // fast-forward probe and skip
	layerExport                  // telemetry.Trace.Export
	numLayers
)

var layerNames = [numLayers]string{
	"op", "setup", "sim.run_until", "cpu.cycle", "trace.next",
	"controller.cycle", "controller.enqueue", "ff.probe", "telemetry.export",
}

// maxSpans caps the spans one workload writes to its span file.
const maxSpans = 200_000

type span struct {
	layer      layer
	op         int32
	id, parent int32
	start, end time.Duration
}

type frame struct {
	layer layer
	id    int32
	start time.Duration
	child time.Duration // time covered by closed child spans
}

// ledger accumulates inclusive and self time per layer over the runs of
// a traced pass and, while recording, keeps the spans of one op in
// memory. A nil *ledger is the untraced path: every method is a no-op.
type ledger struct {
	base    time.Time
	total   [numLayers]time.Duration
	self    [numLayers]time.Duration
	stack   []frame
	nextID  int32
	op      int32
	record  bool
	spans   []span
	dropped int
}

func newLedger() *ledger { return &ledger{base: time.Now()} }

func (l *ledger) begin(k layer) {
	if l == nil {
		return
	}
	l.nextID++
	l.stack = append(l.stack, frame{layer: k, id: l.nextID, start: time.Since(l.base)})
}

func (l *ledger) end() {
	if l == nil {
		return
	}
	now := time.Since(l.base)
	f := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	d := now - f.start
	l.total[f.layer] += d
	l.self[f.layer] += d - f.child
	var parent int32
	if n := len(l.stack); n > 0 {
		l.stack[n-1].child += d
		parent = l.stack[n-1].id
	}
	if l.record {
		if len(l.spans) < maxSpans {
			l.spans = append(l.spans, span{layer: f.layer, op: l.op, id: f.id, parent: parent, start: f.start, end: now})
		} else {
			l.dropped++
		}
	}
}

// startOp opens the root span of one replica run; record keeps its
// spans for the span file.
func (l *ledger) startOp(op int, record bool) {
	l.op = int32(op)
	l.record = record
	l.begin(layerOp)
}

// endOp closes the op's root span, and any span a failed run left open.
func (l *ledger) endOp() {
	for len(l.stack) > 0 {
		l.end()
	}
	l.record = false
}

// writeSpans writes the recorded spans as Chrome trace-event JSON
// (complete events, microsecond timestamps), viewable in Perfetto.
func (l *ledger) writeSpans(path string) error {
	type args struct {
		Op     int32 `json:"op"`
		Span   int32 `json:"span"`
		Parent int32 `json:"parent"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	evs := make([]event, len(l.spans))
	for i, s := range l.spans {
		evs[i] = event{
			Name: layerNames[s.layer], Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Pid: 1, Tid: 1, Args: args{Op: s.op, Span: s.id, Parent: s.parent},
		}
	}
	b, err := json.Marshal(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
		DroppedSpans    int     `json:"droppedSpans"`
	}{evs, "ns", l.dropped})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
