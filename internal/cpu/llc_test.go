package cpu

import (
	"slices"
	"testing"
)

func TestNewLLCValidation(t *testing.T) {
	if _, err := NewLLC(LLCConfig{SizeBytes: -1}); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := NewLLC(LLCConfig{SizeBytes: 3000, Ways: 16, LineBytes: 64}); err == nil {
		t.Error("non-divisible shape accepted")
	}
	l, err := NewLLC(LLCConfig{})
	if err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if l.cfg.SizeBytes != 2<<20 || l.cfg.Ways != 16 || l.cfg.LineBytes != 64 {
		t.Fatalf("defaults wrong: %+v", l.cfg)
	}
}

func TestMustNewLLCPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewLLC did not panic")
		}
	}()
	MustNewLLC(LLCConfig{SizeBytes: -1})
}

func TestLLCHitMiss(t *testing.T) {
	l := MustNewLLC(LLCConfig{SizeBytes: 4096, Ways: 2, LineBytes: 64}) // 32 sets
	r := l.Access(0, false)
	if !r.Miss {
		t.Fatal("cold access should miss")
	}
	r = l.Access(0, false)
	if r.Miss {
		t.Fatal("second access should hit")
	}
	// Same line, different offset: still a hit.
	if l.Access(63, false).Miss {
		t.Fatal("same-line access should hit")
	}
	if l.Hits() != 2 || l.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d", l.Hits(), l.Misses())
	}
	if got := l.MissRate(); got != 1.0/3 {
		t.Fatalf("MissRate = %v", got)
	}
}

func TestLLCMissRateEmpty(t *testing.T) {
	l := MustNewLLC(LLCConfig{})
	if l.MissRate() != 0 {
		t.Fatal("empty cache MissRate not 0")
	}
}

func TestLLCLRUEviction(t *testing.T) {
	// 2 ways, 1 set: size = 2 lines.
	l := MustNewLLC(LLCConfig{SizeBytes: 128, Ways: 2, LineBytes: 64})
	setStride := uint64(64) // one set → every line maps to set 0
	a, b, c := 0*setStride, 1*setStride, 2*setStride
	l.Access(a, false)
	l.Access(b, false)
	l.Access(a, false) // a is MRU
	res := l.Access(c, false)
	if !res.Miss {
		t.Fatal("c should miss")
	}
	// b (LRU) was evicted: a still hits, b misses.
	if l.Access(a, false).Miss {
		t.Fatal("a should have survived (MRU)")
	}
	if !l.Access(b, false).Miss {
		t.Fatal("b should have been evicted (LRU)")
	}
}

func TestLLCWriteback(t *testing.T) {
	l := MustNewLLC(LLCConfig{SizeBytes: 128, Ways: 2, LineBytes: 64})
	l.Access(0, true) // dirty
	l.Access(64, false)
	res := l.Access(128, false) // evicts line 0 (dirty, LRU)
	if !res.Miss || !res.HasWriteback {
		t.Fatalf("expected dirty eviction, got %+v", res)
	}
	if res.Writeback != 0 {
		t.Fatalf("writeback addr = %#x, want 0", res.Writeback)
	}
	if l.Writebacks() != 1 {
		t.Fatalf("Writebacks = %d", l.Writebacks())
	}
	// Clean eviction produces no writeback.
	res = l.Access(192, false) // evicts 64 (clean)
	if res.HasWriteback {
		t.Fatal("clean eviction produced writeback")
	}
}

func TestLLCWritebackAddressReconstruction(t *testing.T) {
	// Two sets: lines alternate sets; evicted address must include the
	// set bits.
	l := MustNewLLC(LLCConfig{SizeBytes: 256, Ways: 2, LineBytes: 64}) // 2 sets
	l.Access(64, true)                                                 // set 1, dirty
	l.Access(192, true)                                                // set 1, dirty
	res := l.Access(320, false)                                        // set 1: evicts 64
	if !res.HasWriteback || res.Writeback != 64 {
		t.Fatalf("writeback = %+v, want addr 64", res)
	}
}

func TestLLCStoreDirtiesOnHit(t *testing.T) {
	l := MustNewLLC(LLCConfig{SizeBytes: 128, Ways: 2, LineBytes: 64})
	l.Access(0, false) // clean fill
	l.Access(0, true)  // store hit dirties
	l.Access(64, false)
	res := l.Access(128, false) // evicts 0
	if !res.HasWriteback {
		t.Fatal("store-hit-dirtied line evicted without writeback")
	}
}

// TestLLCClone: a clone starts with its source's lines, LRU clock and
// counters, and the two evolve independently afterwards.
func TestLLCClone(t *testing.T) {
	l := MustNewLLC(LLCConfig{SizeBytes: 4096, Ways: 2, LineBytes: 64}) // 32 sets
	l.Access(0, true)
	l.Access(0, false)
	l.Access(32*64, false) // same set, second way
	c := l.Clone()
	if c.clock != l.clock || c.Hits() != 1 || c.Misses() != 2 || c.Writebacks() != 0 {
		t.Fatalf("clone clock/hits/misses/writebacks = %d/%d/%d/%d, want %d/1/2/0",
			c.clock, c.Hits(), c.Misses(), c.Writebacks(), l.clock)
	}
	// Line 0 is dirty and least recently used in both: a third line in
	// the set evicts it with a writeback in the clone only.
	if r := c.Access(64*64, false); !r.Miss || !r.HasWriteback || r.Writeback != 0 {
		t.Fatalf("clone access = %+v, want a miss writing back line 0", r)
	}
	if l.Misses() != 2 || l.Writebacks() != 0 || l.clock == c.clock {
		t.Fatalf("accessing the clone changed the source: misses %d, writebacks %d", l.Misses(), l.Writebacks())
	}
	if l.Access(0, false).Miss {
		t.Fatal("line 0 left the source when the clone evicted it")
	}
	if !c.Access(0, false).Miss {
		t.Fatal("line 0 came back to the clone when the source touched it")
	}
}

// TestLLCReleaseReuse: a released cache's lines go back to the pool,
// and a cache built from a pooled buffer starts exactly as a fresh one
// (NewLLC) or as its source (Clone), whatever the buffer held.
func TestLLCReleaseReuse(t *testing.T) {
	cfg := LLCConfig{SizeBytes: 4096, Ways: 2, LineBytes: 64} // 32 sets
	src := MustNewLLC(cfg)
	for a := uint64(0); a < 64; a++ {
		src.Access(a*64, a%3 == 0)
	}
	for round := 0; round < 3; round++ {
		dirty := src.Clone()
		for a := uint64(100); a < 200; a++ {
			dirty.Access(a*64, true)
		}
		dirty.Release()
		dirty.Release() // a second Release does nothing
		if dirty.lines != nil || dirty.buf != nil {
			t.Fatal("a released cache kept its lines")
		}

		fresh := MustNewLLC(cfg)
		for i, ln := range fresh.lines {
			if ln != (llcLine{}) {
				t.Fatalf("round %d: NewLLC line %d = %+v, want an invalid line", round, i, ln)
			}
		}
		fresh.Release()

		c := src.Clone()
		if !slices.Equal(c.lines, src.lines) {
			t.Fatalf("round %d: a clone into a pooled buffer differs from its source", round)
		}
		c.Release()
	}
}
