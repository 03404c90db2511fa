// Package cpu models the processor side of the evaluation: a
// set-associative writeback last-level cache and a Nehalem-like core
// with a reorder-buffer window and MSHR-limited memory-level
// parallelism. Together they are the substitute for the paper's gem5
// SE-mode setup: they turn an instruction/access stream into the LLC
// miss stream the memory controller sees, and translate memory latency
// and parallelism back into IPC.
package cpu

import (
	"fmt"
	"slices"
)

// LLCConfig sizes the last-level cache. Zero fields take Nehalem-like
// defaults: 2 MiB, 16-way, 64-byte lines.
type LLCConfig struct {
	SizeBytes int
	Ways      int
	LineBytes int
}

func (c *LLCConfig) applyDefaults() {
	if c.SizeBytes == 0 {
		c.SizeBytes = 2 << 20
	}
	if c.Ways == 0 {
		c.Ways = 16
	}
	if c.LineBytes == 0 {
		c.LineBytes = 64
	}
}

// LLCResult describes the outcome of one cache access.
type LLCResult struct {
	Miss bool
	// Writeback is set when the allocation evicted a dirty line; the
	// address is the evicted line's.
	Writeback    uint64
	HasWriteback bool
}

// llcLine is one cache line in 16 bytes. The clock advances before
// every access, so a line is valid exactly when it has been used; the
// dirty bit is the low bit of tagDirty, above it the tag (at most 63
// bits, which NewLLC ensures).
type llcLine struct {
	tagDirty uint64
	used     uint64 // LRU timestamp; 0 for an invalid line
}

// LLC is a set-associative writeback, write-allocate cache with LRU
// replacement.
type LLC struct {
	cfg   LLCConfig
	lines []llcLine // set s occupies lines[s*Ways : (s+1)*Ways]
	setsN uint64
	clock uint64

	hits, misses, writebacks uint64
}

// NewLLC builds an LLC, validating the shape.
func NewLLC(cfg LLCConfig) (*LLC, error) {
	cfg.applyDefaults()
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		return nil, fmt.Errorf("cpu: non-positive LLC parameter %+v", cfg)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("cpu: %d lines not divisible by %d ways", lines, cfg.Ways)
	}
	setsN := lines / cfg.Ways
	if setsN == 0 || setsN&(setsN-1) != 0 {
		return nil, fmt.Errorf("cpu: set count %d not a power of two", setsN)
	}
	if setsN == 1 && cfg.LineBytes == 1 {
		// Tags would need all 64 bits, leaving none for the dirty bit.
		return nil, fmt.Errorf("cpu: a one-set LLC needs lines of at least 2 bytes")
	}
	return &LLC{cfg: cfg, lines: make([]llcLine, lines), setsN: uint64(setsN)}, nil
}

// MustNewLLC is NewLLC but panics on error.
func MustNewLLC(cfg LLCConfig) *LLC {
	l, err := NewLLC(cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// Clone returns an independent copy of l: its lines, LRU clock and
// hit/miss/writeback counters. Accesses to either leave the other as it
// was.
func (l *LLC) Clone() *LLC {
	c := *l
	c.lines = slices.Clone(l.lines)
	return &c
}

// Access performs one access; write marks the line dirty. On a miss the
// line is allocated (write-allocate) and a dirty victim produces a
// writeback.
func (l *LLC) Access(addr uint64, write bool) LLCResult {
	l.clock++
	lineAddr := addr / uint64(l.cfg.LineBytes)
	set := lineAddr % l.setsN
	tag := lineAddr / l.setsN
	w := uint64(l.cfg.Ways)
	ways := l.lines[set*w : set*w+w]

	for i := range ways {
		if ways[i].used != 0 && ways[i].tagDirty>>1 == tag {
			ways[i].used = l.clock
			if write {
				ways[i].tagDirty |= 1
			}
			l.hits++
			return LLCResult{}
		}
	}
	l.misses++

	// Choose victim: first invalid way, else LRU.
	victim := 0
	for i := range ways {
		if ways[i].used == 0 {
			victim = i
			break
		}
		if ways[i].used < ways[victim].used {
			victim = i
		}
	}
	var res LLCResult
	res.Miss = true
	if ways[victim].tagDirty&1 != 0 {
		evLine := ways[victim].tagDirty>>1*l.setsN + set
		res.Writeback = evLine * uint64(l.cfg.LineBytes)
		res.HasWriteback = true
		l.writebacks++
	}
	dirty := uint64(0)
	if write {
		dirty = 1
	}
	ways[victim] = llcLine{tagDirty: tag<<1 | dirty, used: l.clock}
	return res
}

// Hits returns the number of hits observed.
func (l *LLC) Hits() uint64 { return l.hits }

// Misses returns the number of misses observed.
func (l *LLC) Misses() uint64 { return l.misses }

// Writebacks returns the number of dirty evictions.
func (l *LLC) Writebacks() uint64 { return l.writebacks }

// MissRate returns misses / accesses (0 before any access).
func (l *LLC) MissRate() float64 {
	total := l.hits + l.misses
	if total == 0 {
		return 0
	}
	return float64(l.misses) / float64(total)
}
