// The LRU and the Group's coalescing and cancellation are tested where
// the server uses them (internal/server's TestCache* and TestFlight*);
// this file covers what the warm-up memo added: a panicking flight.

package memo

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupPanicBecomesError: a panic in fn reaches every waiter of
// its flight as an error instead of killing the process, the flight is
// retired, and the next Do on that key runs fn afresh.
func TestGroupPanicBecomesError(t *testing.T) {
	var g Group[string, int]
	var joined atomic.Int64
	g.OnCoalesce = func() { joined.Add(1) }
	release := make(chan struct{})

	const n = 4
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = g.Do(context.Background(), "k", func(context.Context) (int, error) {
				<-release
				panic("boom")
			})
		}()
	}
	for deadline := time.Now().Add(time.Minute); joined.Load() < n-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d callers joined the flight", joined.Load(), n-1)
		}
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("caller %d: err = %v, want the panic as an error", i, err)
		}
	}

	v, shared, err := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 7, nil })
	if v != 7 || shared || err != nil {
		t.Errorf("Do after the panicked flight = %d, shared %v, err %v; want a fresh run's 7, false, nil", v, shared, err)
	}
}
