// Package invariant is the simulator's build-tag-gated runtime
// assertion layer. The default build compiles every check away: Enabled
// is an untyped false constant, Assert/Assertf are empty functions, and
// call sites are written as
//
//	if invariant.Enabled {
//		invariant.Assertf(cond, "...", args...)
//	}
//
// so the compiler removes both the branch and the argument
// construction. Building or testing with
//
//	go test -tags fgnvm_invariants ./...
//
// turns the same call sites into live panics. Three families of
// invariants ride on this switch:
//
//   - Event-queue monotonicity (internal/sim): the kernel never
//     dispatches an event with a timestamp before the current clock.
//   - SAG x CD exclusivity (internal/core, internal/bank's tests): concurrent
//     device operations within one bank respect the paper's Section 4
//     conflict rules, independently re-checked by TileTracker.
//   - Stall-bucket conservation (internal/controller): the attribution
//     pass's per-cause histogram counts every queued request exactly
//     once, and every reuse of the memoized histogram equals a fresh
//     classification, so the per-cause buckets sum to QueuedWaitCycles.
//
// TileTracker itself is compiled unconditionally (it panics directly
// rather than via Assert) so its rules stay unit-testable without the
// tag; production call sites construct and invoke it only under
// invariant.Enabled.
package invariant
