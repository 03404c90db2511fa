package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"runtime"
	"time"

	fgnvm "repro"
)

// workload is one closed-loop input set: a fixed list of ops, run in
// order, one at a time, for a fixed number of timed passes. The pass
// count, not a clock, sets the run length, so a parent and a change run
// exactly the same ops; it is sized so that a run measures about
// runSeconds on a 2-vCPU host.
type workload struct {
	name   string
	why    string
	passes int
	ops    func(seed uint64) []op
}

// runSeconds is the run length BENCHMARK.json declares. The pass counts
// are sized to it; the benchmark refuses any other -seconds.
const runSeconds = 10

// workloads are the benchmark's input sets. They vary what the
// simulator's host time depends on: row-buffer locality and memory
// intensity (the twelve profiles), subdivision (the six designs and
// the SAG/CD sweeps), and whether the telemetry and sweep fan-out
// layers do any work.
//
// Ops differ in cost, so a pass's op times form one cluster per op. With
// an odd number of ops per pass and pass counts as below, the p50 and
// p90 ranks fall inside one op's cluster rather than between two, where
// they would jump from one op's times to the next op's. paper-matrix
// keeps its 72 ops: its clusters overlap.
var workloads = []workload{
	{
		name:   "paper-matrix",
		why:    "the default path: 12 benchmarks x 6 designs on the paper config (1 channel, 8x2, 200k instructions, warmed LLC)",
		passes: 8,
		ops: func(seed uint64) []op {
			var ops []op
			for _, b := range fgnvm.Benchmarks() {
				for _, d := range fgnvm.Designs() {
					ops = append(ops, op{label: b + "/" + d.String(), run: fgnvm.Options{Design: d, Benchmark: b, Seed: seed}})
				}
			}
			return ops
		},
	},
	{
		name:   "telemetry",
		why:    "lbm, mcf, libquantum, omnetpp, milc x the 5 NVM designs at 100k instructions with attribution, occupancy and a Perfetto trace: the only workload that runs internal/telemetry",
		passes: 5,
		ops: func(seed uint64) []op {
			var ops []op
			for _, b := range []string{"lbm", "mcf", "libquantum", "omnetpp", "milc"} {
				for _, d := range fgnvm.Designs() {
					if d == fgnvm.DesignDRAM {
						continue
					}
					ops = append(ops, op{label: b + "/" + d.String(), run: fgnvm.Options{Design: d, Benchmark: b, Instructions: 100_000, Seed: seed}, telemetry: true})
				}
			}
			return ops
		},
	},
	{
		name:   "sweep",
		why:    "seven SweepContext calls (cds and sags on mcf and lbm, GEMM tiling without LLC) at Parallel=nproc: two simulations share heap and GC",
		passes: 15,
		ops: func(seed uint64) []op {
			par := runtime.NumCPU()
			var ops []op
			for _, axis := range []string{"cds", "sags"} {
				for _, b := range []string{"mcf", "lbm"} {
					p := fgnvm.SweepParams{Axis: axis, Benchmark: b, Seed: seed, Parallel: par}
					ops = append(ops, op{label: axis + "/" + b, sweep: &p})
				}
			}
			for _, preset := range []string{"gpt2s-ffn-down", "gpt2s-attn-score", "gpt2s-decode-qkv"} {
				p := fgnvm.SweepParams{Axis: "tiling", Workload: &fgnvm.WorkloadSpec{Preset: preset}, SkipLLC: true, Seed: seed, Parallel: par}
				ops = append(ops, op{label: "tiling/" + preset, sweep: &p})
			}
			return ops
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// op is one unit of closed-loop work: a single run, or one sweep when
// sweep is set. telemetry attaches attribution, occupancy and a
// Perfetto trace to the run.
type op struct {
	label     string
	run       fgnvm.Options
	telemetry bool
	sweep     *fgnvm.SweepParams
}

// outcome is what an op produced: a digest of its output (the Result
// JSON, plus the digest of the Perfetto bytes for telemetry runs; the
// SweepResult JSON for sweeps) and the instructions it simulated.
type outcome struct {
	digest       [sha256.Size]byte
	instructions uint64
}

// runRecord is one simulation an op ran, reported to execute's caller.
type runRecord struct {
	opts        fgnvm.Options
	res         fgnvm.Result
	wall        time.Duration
	traceDigest [sha256.Size]byte // of the Perfetto bytes, when traced
	traceBytes  int
}

// withTelemetry returns opts with attribution, occupancy and a trace
// writer attached, or with telemetry removed when traceOut is nil.
func withTelemetry(opts fgnvm.Options, traceOut io.Writer) fgnvm.Options {
	opts.Telemetry = nil
	if traceOut != nil {
		opts.Telemetry = &fgnvm.TelemetryOptions{Attribution: true, Occupancy: true, TraceWriter: traceOut}
	}
	return opts
}

// withInstructions returns the op with its instruction budget set.
func (o op) withInstructions(n uint64) op {
	if o.sweep != nil {
		p := *o.sweep
		p.Instructions = n
		o.sweep = &p
	} else {
		o.run.Instructions = n
	}
	return o
}

// execute runs the op through the public API. A sweep runs through
// SweepContext, or, when serial, job by job through the same functions
// SweepContext uses, which is the reference its fan-out must match.
// instructions is exact for runs and serial sweeps, 0 otherwise. record,
// when set, receives each simulation of a run or serial sweep.
func (o op) execute(ctx context.Context, serial bool, record func(runRecord)) (outcome, error) {
	h := sha256.New()
	var out outcome
	run := func(opts fgnvm.Options, traced bool) (fgnvm.Result, error) {
		var th hash.Hash
		var tw *countingWriter
		if traced {
			th = sha256.New()
			tw = &countingWriter{w: th}
			opts = withTelemetry(opts, tw)
		}
		start := time.Now()
		res, err := runChecked(ctx, opts)
		if err == nil && record != nil {
			rec := runRecord{opts: opts, res: res, wall: time.Since(start)}
			if th != nil {
				th.Sum(rec.traceDigest[:0])
				rec.traceBytes = tw.n
			}
			record(rec)
		}
		if th != nil {
			h.Write(th.Sum(nil))
		}
		return res, err
	}
	switch {
	case o.sweep == nil:
		res, err := run(o.run, o.telemetry)
		if err != nil {
			return out, err
		}
		if err := writeJSON(h, res); err != nil {
			return out, err
		}
		out.instructions = res.Instructions
	case serial:
		plan, err := fgnvm.PlanSweep(*o.sweep)
		if err != nil {
			return out, err
		}
		points := make([]fgnvm.SweepPoint, len(plan.Jobs))
		for i, job := range plan.Jobs {
			base, err := run(job.Baseline, false)
			if err != nil {
				return out, err
			}
			r, err := run(job.Options, false)
			if err != nil {
				return out, err
			}
			points[i] = fgnvm.NewSweepPoint(job.Value, r, base)
			out.instructions += base.Instructions + r.Instructions
		}
		sr, err := plan.Assemble(points)
		if err != nil {
			return out, err
		}
		if err := writeJSON(h, sr); err != nil {
			return out, err
		}
	default:
		sr, err := fgnvm.SweepContext(ctx, *o.sweep)
		if err != nil {
			return out, err
		}
		if err := writeJSON(h, sr); err != nil {
			return out, err
		}
	}
	h.Sum(out.digest[:0])
	return out, nil
}

// runChecked runs o and rejects a Result that did not retire its
// budget on every core: no workload here ends its stream early.
func runChecked(ctx context.Context, o fgnvm.Options) (fgnvm.Result, error) {
	budget := o.Instructions
	if budget == 0 {
		budget = 200_000
	}
	cores := uint64(max(o.Cores, 1))
	res, err := fgnvm.RunContext(ctx, o)
	if err != nil {
		return res, err
	}
	if res.Instructions != budget*cores || res.Cycles == 0 {
		return res, fmt.Errorf("%s/%s retired %d instructions in %d cycles, want %d",
			res.Benchmark, res.Design, res.Instructions, res.Cycles, budget*cores)
	}
	return res, nil
}

func writeJSON(h hash.Hash, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	h.Write(b)
	return nil
}

// workloadDigest folds the per-op digests of one pass into one value.
func workloadDigest(outs []outcome) string {
	h := sha256.New()
	for _, o := range outs {
		h.Write(o.digest[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}
