// Concurrency stress for the worker pool, aimed at the race detector:
// admission, metrics reads, and shutdown from many goroutines at once.
// `go test -race ./internal/server/` is the CI job that gives this
// test its teeth; without -race it still checks the admission/close
// accounting (no task lost, none run after Close returns).

package server

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolConcurrentSubmitCloseRace(t *testing.T) {
	const submitters = 8
	pool := NewPool(4, 16)
	var admitted, executed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				task := func() { executed.Add(1); runtime.Gosched() }
				if err := pool.Run(context.Background(), false, task); err == nil {
					admitted.Add(1)
				}
				// Metric reads race with running tasks and Close.
				_ = pool.InFlight()
				_ = pool.QueueLen()
			}
		}()
	}
	// Let the submitters hammer for a bounded amount of admitted work,
	// then shut down while they are still spinning.
	for admitted.Load() < 500 {
		runtime.Gosched()
	}
	pool.Close()
	after := executed.Load()
	close(stop)
	wg.Wait()
	if got, want := executed.Load(), admitted.Load(); got != want {
		t.Errorf("executed %d of %d admitted tasks", got, want)
	}
	if after != executed.Load() {
		t.Errorf("%d tasks executed after Close returned", executed.Load()-after)
	}
}
