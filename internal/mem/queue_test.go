package mem

import "testing"

// queueModel is the obvious reference implementation: a plain slice
// with copy-shift removal. Queue must agree with it on every operation,
// because FR-FCFS arbitration order IS queue age order — any divergence
// changes simulation results.
type queueModel struct {
	entries []*Request
	cap     int
}

func (m *queueModel) push(r *Request) bool {
	if len(m.entries) >= m.cap {
		return false
	}
	m.entries = append(m.entries, r)
	return true
}

func (m *queueModel) remove(i int) *Request {
	r := m.entries[i]
	m.entries = append(m.entries[:i], m.entries[i+1:]...)
	return r
}

func checkAgainstModel(t *testing.T, q *Queue, m *queueModel) {
	t.Helper()
	if q.Len() != len(m.entries) {
		t.Fatalf("Len = %d, model %d", q.Len(), len(m.entries))
	}
	for i, want := range m.entries {
		if q.At(i) != want {
			t.Fatalf("At(%d) = %v, model %v (order not preserved)", i, q.At(i), want)
		}
	}
	i := 0
	q.Scan(func(j int, r *Request) bool {
		if j != i || r != m.entries[i] {
			t.Fatalf("Scan yielded (%d, %v), model (%d, %v)", j, r, i, m.entries[i])
		}
		i++
		return true
	})
	if i != len(m.entries) {
		t.Fatalf("Scan visited %d entries, model %d", i, len(m.entries))
	}
	for j, r := range q.entries[len(q.entries):cap(q.entries)] {
		if r != nil {
			t.Fatalf("vacated slot %d still holds %v", len(q.entries)+j, r)
		}
	}
}

// TestQueueFCFSOrderPreserved pins that Push/Remove preserve age order
// exactly, across head, middle and tail removals, by comparing against
// the naive model under a deterministic splitmix64-driven op sequence.
func TestQueueFCFSOrderPreserved(t *testing.T) {
	const capacity = 8
	q := NewQueue(capacity)
	m := &queueModel{cap: capacity}
	reqs := make([]*Request, 0, 4096)
	newReq := func() *Request {
		r := &Request{ID: uint64(len(reqs))}
		reqs = append(reqs, r)
		return r
	}
	// splitmix64: deterministic, no global rand.
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for op := 0; op < 4096; op++ {
		switch {
		case q.Empty() || next()%3 == 0:
			r := newReq()
			if got, want := q.Push(r), m.push(r); got != want {
				t.Fatalf("op %d: Push = %v, model %v", op, got, want)
			}
		default:
			i := int(next() % uint64(q.Len()))
			if got, want := q.Remove(i), m.remove(i); got != want {
				t.Fatalf("op %d: Remove(%d) = %v, model %v", op, i, got, want)
			}
		}
		checkAgainstModel(t, q, m)
		if q.Full() != (q.Len() >= capacity) || q.Empty() != (q.Len() == 0) {
			t.Fatalf("op %d: Full/Empty inconsistent with Len=%d", op, q.Len())
		}
	}
}

// TestQueueHeadRemovalNoCopy checks the FCFS drain directly: removing
// the oldest entry, again and again, must keep the survivors in age
// order and leave the queue empty.
func TestQueueHeadRemovalNoCopy(t *testing.T) {
	q := NewQueue(4)
	a, b, c := &Request{ID: 1}, &Request{ID: 2}, &Request{ID: 3}
	q.Push(a)
	q.Push(b)
	q.Push(c)
	if got := q.Remove(0); got != a {
		t.Fatalf("Remove(0) = %v, want %v", got, a)
	}
	if q.Len() != 2 || q.At(0) != b || q.At(1) != c {
		t.Fatal("head removal disturbed survivor order")
	}
	if got := q.Remove(0); got != b {
		t.Fatalf("Remove(0) = %v, want %v", got, b)
	}
	if got := q.Remove(0); got != c {
		t.Fatalf("Remove(0) = %v, want %v", got, c)
	}
	if !q.Empty() {
		t.Fatal("queue not empty after draining")
	}
}

// TestQueuePushNeverGrows pins that Push and Remove reuse the original
// backing array: a long churn of pushes and removals must not allocate.
func TestQueuePushNeverGrows(t *testing.T) {
	q := NewQueue(8)
	var pool [16]Request
	for i := range pool {
		pool[i].ID = uint64(i)
	}
	k := 0
	allocs := testing.AllocsPerRun(1000, func() {
		for q.Len() < 8 {
			q.Push(&pool[k%16])
			k++
		}
		q.Remove(0)
		q.Remove(2)
	})
	if allocs != 0 {
		t.Fatalf("queue churn allocates %.1f per iteration, want 0", allocs)
	}
}

func BenchmarkQueueHeadRemove(b *testing.B) {
	q := NewQueue(32)
	var reqs [32]Request
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for q.Len() < 32 {
			q.Push(&reqs[q.Len()])
		}
		for !q.Empty() {
			q.Remove(0)
		}
	}
}
