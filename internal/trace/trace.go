// Package trace generates the memory access streams that drive the CPU
// model — the substitute for the paper's SPEC2006 SimPoint slices.
//
// The paper profiles all 30 SPEC2006 benchmarks and keeps those with at
// least 10 misses per kilo-instruction (MPKI) at the last-level cache.
// SPEC binaries and SimPoints are not available here, so each benchmark
// is replaced by a statistical profile with the published characteristics
// that matter to the memory system: access intensity, read/write mix,
// spatial (row-buffer) locality, burstiness (memory-level parallelism)
// and footprint. The streams are generated by a seeded SplitMix64 PRNG,
// so identical configurations produce identical traces on any platform.
package trace

import (
	"math"
	"slices"
)

// Access is one cache-level memory access in program order.
type Access struct {
	// Gap is the number of non-memory instructions executed before this
	// access.
	Gap uint32
	// Addr is the physical byte address (line aligned).
	Addr uint64
	// Write indicates a store (which dirties its line in the LLC).
	Write bool
}

// Stream produces accesses in program order. Implementations must be
// deterministic for a fixed construction.
type Stream interface {
	// Next returns the next access and true, or a zero Access and false
	// when the stream is exhausted (generators never exhaust).
	Next() (Access, bool)
}

// Profile is the statistical description of one benchmark's LLC-level
// access stream.
type Profile struct {
	Name string
	// APKI is LLC accesses per kilo-instruction. With footprints far
	// exceeding the LLC, almost all accesses miss, so APKI approximates
	// the paper's selection metric MPKI.
	APKI float64
	// WriteFrac is the fraction of accesses that are stores.
	WriteFrac float64
	// Locality is the probability that an access continues sequentially
	// through the current row rather than jumping to a random line.
	Locality float64
	// Burst is the probability that an access follows its predecessor
	// with (almost) no intervening instructions — the knob for
	// memory-level parallelism.
	Burst float64
	// FootprintBytes is the size of the touched region.
	FootprintBytes uint64
}

const mib = 1 << 20

// profiles is the benchmark set used throughout the evaluation: the
// SPEC2006 benchmarks the paper selects (LLC MPKI ≥ 10), each with
// literature-typical intensity, mix, and locality. Order matches the
// presentation order of Figure 4's bars.
var profiles = []Profile{
	{Name: "bwaves", APKI: 15, WriteFrac: 0.20, Locality: 0.80, Burst: 0.50, FootprintBytes: 128 * mib},
	{Name: "cactusADM", APKI: 10, WriteFrac: 0.35, Locality: 0.50, Burst: 0.35, FootprintBytes: 96 * mib},
	{Name: "GemsFDTD", APKI: 18, WriteFrac: 0.35, Locality: 0.70, Burst: 0.45, FootprintBytes: 192 * mib},
	{Name: "lbm", APKI: 31, WriteFrac: 0.45, Locality: 0.85, Burst: 0.60, FootprintBytes: 192 * mib},
	{Name: "leslie3d", APKI: 13, WriteFrac: 0.30, Locality: 0.70, Burst: 0.40, FootprintBytes: 96 * mib},
	{Name: "libquantum", APKI: 25, WriteFrac: 0.25, Locality: 0.95, Burst: 0.65, FootprintBytes: 64 * mib},
	{Name: "mcf", APKI: 33, WriteFrac: 0.25, Locality: 0.15, Burst: 0.70, FootprintBytes: 256 * mib},
	{Name: "milc", APKI: 19, WriteFrac: 0.30, Locality: 0.50, Burst: 0.45, FootprintBytes: 128 * mib},
	{Name: "omnetpp", APKI: 10, WriteFrac: 0.30, Locality: 0.30, Burst: 0.40, FootprintBytes: 96 * mib},
	{Name: "soplex", APKI: 21, WriteFrac: 0.20, Locality: 0.55, Burst: 0.50, FootprintBytes: 128 * mib},
	{Name: "sphinx3", APKI: 12, WriteFrac: 0.10, Locality: 0.60, Burst: 0.40, FootprintBytes: 64 * mib},
	{Name: "zeusmp", APKI: 10, WriteFrac: 0.30, Locality: 0.60, Burst: 0.35, FootprintBytes: 96 * mib},
}

// Profiles returns a copy of the benchmark set, in Figure 4 order.
func Profiles() []Profile { return slices.Clone(profiles) }

// ProfileByName looks a profile up by benchmark name.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// rng is a SplitMix64 generator: tiny, fast, and identical everywhere.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return r.next() % n
}

// Generator synthesizes an infinite access stream from a Profile. Its
// whole state is plain values, so Clone is one struct copy.
type Generator struct {
	p         Profile
	r         rng
	lineBytes uint64
	cur       uint64 // current address cursor
	meanGap   float64
}

// NewGenerator builds a deterministic generator. lineBytes is the step
// of the sequential walk: a "sequential" access advances one line.
// rowBytes is unused: the stream does not depend on the memory's row
// size, so every design of a benchmark sees the same accesses.
func NewGenerator(p Profile, lineBytes, rowBytes int, seed uint64) *Generator {
	g := &Generator{
		p:         p,
		r:         rng{state: seed ^ hashName(p.Name)},
		lineBytes: uint64(lineBytes),
	}
	// Mean instructions between accesses so that the stream averages
	// APKI accesses per 1000 instructions.
	if p.APKI > 0 {
		g.meanGap = 1000.0/p.APKI - 1
		if g.meanGap < 0 {
			g.meanGap = 0
		}
	}
	g.cur = g.randomLine()
	return g
}

// Clone returns an independent copy that continues the stream exactly
// where g stands, without advancing g.
func (g *Generator) Clone() *Generator {
	c := *g
	return &c
}

func hashName(s string) uint64 {
	h := uint64(1469598103934665603) // FNV-1a
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func (g *Generator) randomLine() uint64 {
	lines := g.p.FootprintBytes / g.lineBytes
	if lines == 0 {
		lines = 1
	}
	return g.r.intn(lines) * g.lineBytes
}

// gap draws the instruction gap before the next access: near-zero when
// bursting, otherwise exponential with the calibrated mean (scaled so
// the overall mean still hits the APKI target).
func (g *Generator) gap() uint32 {
	if g.r.float() < g.p.Burst {
		return uint32(g.r.intn(2))
	}
	// The non-burst accesses carry the full gap budget.
	mean := g.meanGap / math.Max(1-g.p.Burst, 0.05)
	u := g.r.float()
	gp := -mean * math.Log(1-u)
	if gp > 1e6 {
		gp = 1e6
	}
	return uint32(gp)
}

// Next produces the next access. Generators never exhaust, so the bool
// is always true.
func (g *Generator) Next() (Access, bool) {
	var a Access
	a.Gap = g.gap()
	if g.r.float() < g.p.Locality {
		// Walk sequentially to the next line; leaving the footprint
		// wraps to its start.
		g.cur += g.lineBytes
		if g.cur >= g.p.FootprintBytes {
			g.cur = 0
		}
	} else {
		g.cur = g.randomLine()
	}
	a.Addr = g.cur
	a.Write = g.r.float() < g.p.WriteFrac
	return a, true
}

// Limit wraps a stream and ends it after n accesses.
type Limit struct {
	s    Stream
	left uint64
}

// NewLimit returns a stream that yields at most n accesses from s.
func NewLimit(s Stream, n uint64) *Limit { return &Limit{s: s, left: n} }

// Next implements Stream.
func (l *Limit) Next() (Access, bool) {
	if l.left == 0 {
		return Access{}, false
	}
	l.left--
	return l.s.Next()
}

// Offset shifts every address of an inner stream by a fixed base,
// giving multi-programmed cores disjoint address regions.
type Offset struct {
	s    Stream
	base uint64
}

// NewOffset wraps s, adding base to every address.
func NewOffset(s Stream, base uint64) *Offset { return &Offset{s: s, base: base} }

// Next implements Stream.
func (o *Offset) Next() (Access, bool) {
	a, ok := o.s.Next()
	a.Addr += o.base
	return a, ok
}

// SliceStream replays a fixed slice of accesses; used by tests and by
// trace files loaded from disk.
type SliceStream struct {
	accs []Access
	pos  int
}

// NewSliceStream wraps accs (not copied) as a Stream.
func NewSliceStream(accs []Access) *SliceStream { return &SliceStream{accs: accs} }

// Next implements Stream.
func (s *SliceStream) Next() (Access, bool) {
	if s.pos >= len(s.accs) {
		return Access{}, false
	}
	a := s.accs[s.pos]
	s.pos++
	return a, true
}
