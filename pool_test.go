// Tests for the run buffers' pools: RunContext returns each run's LLC
// lines and trace chunks when it ends, however it ends, and the next
// run builds on them. A run on pooled buffers must produce the bytes
// of a run on fresh ones (allocbudget_test.go bounds what it allocates).

package fgnvm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// poolCases are the runs the pool tests repeat: a traced FgNVM run, a
// 2-core Mix and a DRAM run, each with full telemetry attached.
var poolCases = []struct {
	name string
	o    Options
}{
	{"fgnvm", Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: "lbm", Instructions: warmInstr}},
	{"mix", Options{Design: DesignSALP, Mix: []string{"mcf", "lbm"}, Seed: 5, Instructions: warmInstr}},
	{"dram", Options{Design: DesignDRAM, Benchmark: "milc", Instructions: warmInstr}},
}

// pooledArtifacts runs o with full telemetry attached and returns its
// Result JSON and Perfetto bytes. It is safe to call from any
// goroutine.
func pooledArtifacts(ctx context.Context, o Options) (res, trace []byte, err error) {
	var buf bytes.Buffer
	o.Telemetry = &TelemetryOptions{Attribution: true, Occupancy: true, TraceWriter: &buf}
	r, err := RunContext(ctx, o)
	if err != nil {
		return nil, nil, fmt.Errorf("%v/%s: %w", o.Design, r.Benchmark, err)
	}
	res, err = json.Marshal(r)
	return res, buf.Bytes(), err
}

// pollLimitCtx reports no error for its first n polls and
// context.Canceled after them, so a run is cancelled part way through
// its run loop, holding a cloned LLC and a partly filled trace.
type pollLimitCtx struct {
	context.Context
	n     int64
	polls atomic.Int64
}

func (c *pollLimitCtx) Err() error {
	if c.polls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// failBetween runs o twice more, failing once its buffers are in use:
// once cancelled inside its run loop, and once past MaxCycles. Both
// must release their buffers on the way out.
func failBetween(t *testing.T, o Options) {
	t.Helper()
	o.Telemetry = &TelemetryOptions{Attribution: true, Occupancy: true, TraceWriter: io.Discard}
	o.Instructions = 100_000 // outlasts the first poll inside the run loop
	ctx := &pollLimitCtx{Context: context.Background(), n: 2}
	if _, err := RunContext(ctx, o); err != context.Canceled {
		t.Fatalf("run cancelled in its run loop returned %v, want context.Canceled", err)
	}
	o.MaxCycles = 500
	if _, err := RunContext(context.Background(), o); err == nil || !strings.Contains(err.Error(), "MaxCycles") {
		t.Fatalf("run capped at 500 cycles returned %v, want the MaxCycles error", err)
	}
}

// TestPooledRunsMatchFresh runs each pool case, then a cancelled run
// and a MaxCycles failure that release dirty buffers, then the case
// again on those buffers, and once more on a cleared warm-up memo. The
// three must agree byte for byte in Result JSON and Perfetto trace.
func TestPooledRunsMatchFresh(t *testing.T) {
	for _, c := range poolCases {
		t.Run(c.name, func(t *testing.T) {
			ctx := context.Background()
			firstRes, firstTrace, err := pooledArtifacts(ctx, c.o)
			if err != nil {
				t.Fatal(err)
			}
			failBetween(t, c.o)
			againRes, againTrace, err := pooledArtifacts(ctx, c.o)
			if err != nil {
				t.Fatal(err)
			}
			resetWarmMemo()
			coldRes, coldTrace, err := pooledArtifacts(ctx, c.o)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(againRes, firstRes) || !bytes.Equal(coldRes, firstRes) {
				t.Errorf("Result moved on pooled buffers:\n  first: %s\n  again: %s\n  cold : %s", firstRes, againRes, coldRes)
			}
			if !bytes.Equal(againTrace, firstTrace) || !bytes.Equal(coldTrace, firstTrace) {
				t.Errorf("Perfetto trace moved on pooled buffers: %d, %d and %d bytes",
					len(firstTrace), len(againTrace), len(coldTrace))
			}
		})
	}
}

// TestPooledRunsConcurrent runs every pool case on its own goroutine
// while a Parallel 4 sweep runs beside them, as the server runs
// requests, so all of them draw from and return to the shared pools at
// once (run it under -race). Each must give its serial bytes.
func TestPooledRunsConcurrent(t *testing.T) {
	ctx := context.Background()
	sweep := SweepParams{Axis: "cds", Values: []int{1, 2, 4, 8}, Design: DesignFgNVM, Benchmark: "milc",
		Instructions: warmInstr, Parallel: 4}
	sweepJSON := func() ([]byte, error) {
		r, err := SweepContext(ctx, sweep)
		if err != nil {
			return nil, err
		}
		return json.Marshal(r)
	}
	type artifacts struct{ res, trace []byte }
	want := make([]artifacts, len(poolCases))
	for i, c := range poolCases {
		res, trace, err := pooledArtifacts(ctx, c.o)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = artifacts{res, trace}
	}
	wantSweep, err := sweepJSON()
	if err != nil {
		t.Fatal(err)
	}

	errs := make([]error, len(poolCases)+1)
	var wg sync.WaitGroup
	for i, c := range poolCases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, trace, err := pooledArtifacts(ctx, c.o)
			if err == nil && (!bytes.Equal(res, want[i].res) || !bytes.Equal(trace, want[i].trace)) {
				err = fmt.Errorf("%s: concurrent run diverged from the serial one", c.name)
			}
			errs[i] = err
		}()
	}
	got, err := sweepJSON()
	if err == nil && !bytes.Equal(got, wantSweep) {
		err = fmt.Errorf("concurrent sweep diverged from the serial one")
	}
	errs[len(poolCases)] = err
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
