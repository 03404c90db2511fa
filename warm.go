package fgnvm

import (
	"context"
	"sync"

	"repro/internal/cpu"
	"repro/internal/trace"
)

// warmKey is everything a benchmark core's LLC warm-up reads: the
// profile, the core's seed and address base, the generator's line size
// and the warm-up length. The LLC's shape is not in the key because
// every run uses the default LLCConfig, and the memory's row size is
// not in it because the generator never reads it. Equal keys warm equal
// caches, whatever the design.
type warmKey struct {
	profile   trace.Profile
	seed      uint64
	base      uint64 // the core's trace.Offset (0 for core 0)
	lineBytes int
	accesses  int
}

// generator returns the core's generator at the head of its stream.
func (k warmKey) generator() *trace.Generator {
	return trace.NewGenerator(k.profile, k.lineBytes, 0, k.seed)
}

// stream wraps gen as the core's access stream.
func (k warmKey) stream(gen *trace.Generator) trace.Stream {
	if k.base == 0 {
		return gen
	}
	return trace.NewOffset(gen, k.base)
}

// warmState is one memo entry: a warmed LLC and the generator that
// warmed it, standing just past the warm-up. Entries are never mutated;
// runs continue from clones.
type warmState struct {
	llc *cpu.LLC
	gen *trace.Generator
}

// warmMemoCap bounds the warm-up memo. Sixteen entries hold the twelve
// paper benchmarks at one seed plus a Mix of maxCores cores. One entry
// is one LLC's lines, about 0.8 MB of pointer-free memory, so a full
// memo holds about 13 MB.
const warmMemoCap = 16

// warmMemo is the process-wide warm-up memo, evicted in FIFO order.
// Concurrent misses on one key each warm their own copy; the first to
// finish is stored, and both results are identical anyway.
var warmMemo struct {
	sync.Mutex
	m    map[warmKey]warmState
	fifo [warmMemoCap]warmKey // insertion ring; next is the oldest slot
	next int
}

// warmedCore returns the LLC of the benchmark core k describes, warmed
// with k.accesses accesses, and the stream that continues after them.
// The warmed state comes from the memo when an earlier run already
// computed it; otherwise it is computed and stored. A cancelled warm-up
// stores nothing.
func warmedCore(ctx context.Context, k warmKey) (*cpu.LLC, trace.Stream, error) {
	warmMemo.Lock()
	w, ok := warmMemo.m[k]
	warmMemo.Unlock()
	if !ok {
		llc, err := cpu.NewLLC(cpu.LLCConfig{})
		if err != nil {
			return nil, nil, err
		}
		gen := k.generator()
		if err := warmLLC(ctx, llc, k.stream(gen), k.accesses); err != nil {
			return nil, nil, err
		}
		w = warmState{llc: llc, gen: gen}
		warmMemo.Lock()
		if _, ok := warmMemo.m[k]; !ok {
			if warmMemo.m == nil {
				warmMemo.m = make(map[warmKey]warmState, warmMemoCap)
			}
			delete(warmMemo.m, warmMemo.fifo[warmMemo.next])
			warmMemo.fifo[warmMemo.next] = k
			warmMemo.next = (warmMemo.next + 1) % warmMemoCap
			warmMemo.m[k] = w
		}
		warmMemo.Unlock()
	}
	return w.llc.Clone(), k.stream(w.gen.Clone()), nil
}

// warmLLC runs the first n accesses of stream through llc (fewer if the
// stream ends first), polling ctx like the run loop does.
func warmLLC(ctx context.Context, llc *cpu.LLC, stream trace.Stream, n int) error {
	for j := 0; j < n; j++ {
		if j&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		a, ok := stream.Next()
		if !ok {
			break
		}
		llc.Access(a.Addr, a.Write)
	}
	return nil
}
