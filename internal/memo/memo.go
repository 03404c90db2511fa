// Package memo holds the two halves of a coalescing memo: an LRU of
// finished values and a group that runs each missing value once, however
// many callers ask for it at the same time. The server's result cache
// and the LLC warm-up memo are both built from them.
package memo

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// LRU is a thread-safe least-recently-used map of at most a fixed
// number of entries. An LRU with capacity < 1 is disabled: Get always
// misses and Add is a no-op.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// NewLRU returns an LRU holding at most capacity entries.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	return &LRU[K, V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[K]*list.Element),
	}
}

// Get returns the value stored under key, marking it most recently
// used. Callers must not mutate what it points to.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Add stores val under key, evicting the least recently used entry
// when over capacity. An existing entry is replaced.
func (c *LRU[K, V]) Add(key K, val V) {
	if c.cap < 1 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*lruEntry[K, V]).key)
	}
}

// Len reports the number of stored entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Group deduplicates concurrent work by key: a singleflight variant
// with reference-counted cancellation. Callers asking for a key while
// its work is in flight join it instead of starting their own; the
// work is cancelled only when the last interested caller has gone
// away, so one impatient caller cannot kill a result that others still
// wait for. The zero Group is ready to use.
type Group[K comparable, V any] struct {
	mu      sync.Mutex
	flights map[K]*flight[V]

	// OnCoalesce, when set, is invoked each time a caller joins an
	// existing flight — at join time, so observers (the server's
	// coalesced counter) see waiters while the flight is still running.
	OnCoalesce func()
}

// flight is one in-progress computation and its waiters.
type flight[V any] struct {
	cancel  context.CancelFunc
	waiters int
	done    chan struct{} // closed when val/err are set
	val     V
	err     error
}

// Do returns the result of fn for key, coalescing concurrent calls:
// the first caller starts fn on a goroutine, under a context owned by
// the flight (values inherited from ctx, lifetime not); later callers
// wait for the same result and report shared=true. A caller whose own
// ctx ends detaches with ctx's error; when the last waiter detaches,
// the flight context is cancelled so the abandoned work stops
// promptly. A panic in fn reaches every waiter as an error.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (val V, shared bool, err error) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[K]*flight[V])
	}
	if f, ok := g.flights[key]; ok {
		f.waiters++
		g.mu.Unlock()
		if g.OnCoalesce != nil {
			g.OnCoalesce()
		}
		return g.wait(ctx, key, f, true)
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f := &flight[V]{cancel: cancel, waiters: 1, done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()

	go func() {
		var v V
		var err error
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("memo: computation panicked: %v", p)
			}
			g.mu.Lock()
			f.val, f.err = v, err
			if g.flights[key] == f {
				delete(g.flights, key)
			}
			g.mu.Unlock()
			close(f.done)
			cancel()
		}()
		v, err = fn(fctx)
	}()
	return g.wait(ctx, key, f, false)
}

// wait blocks until f completes or ctx ends, whichever first.
func (g *Group[K, V]) wait(ctx context.Context, key K, f *flight[V], shared bool) (V, bool, error) {
	select {
	case <-f.done:
		return f.val, shared, f.err
	case <-ctx.Done():
		g.detach(key, f)
		var zero V
		return zero, shared, ctx.Err()
	}
}

// detach removes one waiter; the last one out cancels the flight.
func (g *Group[K, V]) detach(key K, f *flight[V]) {
	g.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	if last && g.flights[key] == f {
		delete(g.flights, key)
	}
	g.mu.Unlock()
	if last {
		f.cancel()
	}
}
