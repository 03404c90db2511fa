//go:build !race

package fgnvm

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// memoHitAllocBudget bounds what one memo-hit run on the paper's config
// allocates once the pools hold its LLC lines: the controller, the
// core and the result, well under one LLC copy (512 KiB).
const memoHitAllocBudget = 128 << 10

// TestMemoHitRunAllocBudget: a default run whose warm-up comes from the
// memo allocates under memoHitAllocBudget, because its LLC lines come
// from the previous run's release. The garbage collector is off
// throughout, since a collection may empty the pools. The race
// detector makes sync.Pool drop items at random, so this file is not
// built under it.
func TestMemoHitRunAllocBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	o := Options{Design: DesignFgNVM, SAGs: 8, CDs: 2, Benchmark: "mcf"}
	if _, err := Run(o); err != nil { // fills the memo and the pool
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > memoHitAllocBudget {
		t.Errorf("a memo-hit default run allocated %d KiB, budget %d KiB", n>>10, memoHitAllocBudget>>10)
	}
}
