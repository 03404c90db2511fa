package fgnvm

import (
	"context"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/memo"
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
// warmed it, standing just past the warm-up. Entries are never mutated
// or released; runs continue from clones, and release only those.
type warmState struct {
	llc *cpu.LLC
	gen *trace.Generator
}

// warmMemoCap bounds the warm-up memo. Sixteen entries hold the twelve
// paper benchmarks at one seed plus a Mix of maxCores cores. One entry
// is one LLC's lines, 32,768 lines of 16 bytes (512 KiB) of
// pointer-free memory, so a full memo holds about 8.4 MB.
const warmMemoCap = 16

// warmMemo is the process-wide warm-up memo: finished warm-ups in an
// LRU, and the warm-ups in flight, so concurrent misses on one key warm
// it once.
var warmMemo = struct {
	lru     *memo.LRU[warmKey, warmState]
	flights memo.Group[warmKey, warmState]
	warms   atomic.Uint64 // warm-ups computed, for tests
}{lru: memo.NewLRU[warmKey, warmState](warmMemoCap)}

// warmedCore returns the LLC of the benchmark core k describes, warmed
// with k.accesses accesses, and the stream that continues after them.
// The warmed state comes from the memo when an earlier run already
// computed it. Otherwise the first caller's flight warms it and stores
// it, and callers that miss while it runs join that flight. The
// warm-up stops, storing nothing, only when every caller waiting for
// it has gone.
func warmedCore(ctx context.Context, k warmKey) (*cpu.LLC, trace.Stream, error) {
	w, ok := warmMemo.lru.Get(k)
	if !ok {
		var err error
		w, _, err = warmMemo.flights.Do(ctx, k, func(fctx context.Context) (warmState, error) {
			if w, ok := warmMemo.lru.Get(k); ok { // a flight that just ended stored it
				return w, nil
			}
			warmMemo.warms.Add(1)
			llc, err := cpu.NewLLC(cpu.LLCConfig{})
			if err != nil {
				return warmState{}, err
			}
			gen := k.generator()
			if err := warmLLC(fctx, llc, k.stream(gen), k.accesses); err != nil {
				llc.Release() // stored nowhere, so no run clones it
				return warmState{}, err
			}
			w := warmState{llc: llc, gen: gen}
			warmMemo.lru.Add(k, w)
			return w, nil
		})
		if err != nil {
			return nil, nil, err
		}
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
