// Admission control for the serving layer: a semaphore over simulation
// runs with queue-depth backpressure. A run executes on the goroutine
// that asks for it, once it holds one of the worker slots; a fixed
// number more may wait in line. Admission for a request is try-only —
// a full line is reported to the caller immediately (mapped to HTTP 429
// upstream) instead of blocking the handler, which is what keeps an
// overloaded service responsive. Only sweep points, whose sweep was
// already admitted, wait for room.

package server

import (
	"context"
	"errors"
	"sync"
)

// ErrSaturated is returned by Pool.Run when every worker slot is busy
// and the line is full, or when the pool is closed.
var ErrSaturated = errors.New("server: worker pool saturated")

// Pool bounds concurrent runs: at most workers execute and at most
// depth more wait for a slot. It starts no goroutine of its own.
type Pool struct {
	admit chan struct{} // one token per admitted run, waiting or executing
	run   chan struct{} // one token per executing run

	mu      sync.Mutex     // orders wg.Add against Close
	closing chan struct{}  // closed by Close: stops admission
	wg      sync.WaitGroup // callers inside Run
}

// NewPool returns a pool of workers slots with room for depth runs
// waiting beyond the ones executing. workers < 1 is treated as 1,
// depth < 0 as 0; at depth 0 a run is admitted only when a slot is
// free.
func NewPool(workers, depth int) *Pool {
	workers, depth = max(workers, 1), max(depth, 0)
	return &Pool{
		admit:   make(chan struct{}, workers+depth),
		run:     make(chan struct{}, workers),
		closing: make(chan struct{}),
	}
}

// Run admits task and executes it on the calling goroutine once a
// worker slot is free, returning after it has run. On a full pool,
// wait false returns ErrSaturated at once (/v1/run, /v1/figure4) and
// wait true waits for room until ctx ends (sweep points). A closed
// pool returns ErrSaturated, also to a caller already waiting for
// room; an admitted task always runs.
func (p *Pool) Run(ctx context.Context, wait bool, task func()) error {
	p.mu.Lock()
	select {
	case <-p.closing:
		p.mu.Unlock()
		return ErrSaturated
	default:
	}
	p.wg.Add(1)
	p.mu.Unlock()
	defer p.wg.Done()

	select {
	case p.admit <- struct{}{}:
	default:
		if !wait {
			return ErrSaturated
		}
		select {
		case p.admit <- struct{}{}:
		case <-p.closing:
			return ErrSaturated
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	defer func() { <-p.admit }()
	p.run <- struct{}{}
	defer func() { <-p.run }()
	task()
	return nil
}

// InFlight reports the number of runs currently executing.
func (p *Pool) InFlight() int64 { return int64(len(p.run)) }

// QueueLen reports the number of runs admitted but not yet executing.
// The two token counts are read one after the other, so a run changing
// state between the reads is clamped away.
func (p *Pool) QueueLen() int { return max(len(p.admit)-len(p.run), 0) }

// Close stops admission and waits for every admitted run to finish.
func (p *Pool) Close() {
	p.mu.Lock()
	select {
	case <-p.closing:
	default:
		close(p.closing)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
