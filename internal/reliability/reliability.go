// Package reliability quantifies the soft-error concern the paper
// raises in Section 3.2: FgNVM groups all bits of a cache line into a
// single tile instead of interleaving them across the row, which means
// a spatially-correlated radiation strike (a multi-bit upset cluster)
// lands many flips in ONE ECC word instead of one flip in MANY words.
// The paper assumes resistive storage is resilient enough to make the
// grouped organization safe; this package provides the Monte Carlo
// model to check what that assumption buys and what ECC strength the
// grouped layout needs.
//
// Model: a tile is a 2-D grid of cells. A strike flips a cluster of
// cells around a uniformly random center (cluster shapes follow the
// usual MBU measurements: mostly 1–2 cells, occasionally up to 4×4).
// The data layout maps each cell to an ECC word; a word with more
// flips than the code corrects is uncorrectable. Everything is seeded
// and deterministic.
package reliability

import (
	"fmt"
)

// Layout selects the cell-to-cache-line mapping inside a tile.
type Layout int

const (
	// LayoutInterleaved is the baseline NVM organization: horizontally
	// adjacent cells belong to different cache lines (bits interleave
	// across the row), so a spatial cluster spreads across many ECC
	// words.
	LayoutInterleaved Layout = iota
	// LayoutGrouped is the FgNVM organization (Section 3.2): a cache
	// line's bits occupy adjacent columns of one tile row, so a
	// spatial cluster concentrates in few ECC words.
	LayoutGrouped
)

func (l Layout) String() string {
	switch l {
	case LayoutInterleaved:
		return "interleaved"
	case LayoutGrouped:
		return "grouped"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// ECC describes a per-word error-correcting code.
type ECC struct {
	// WordBits is the protected word size (data+check treated
	// uniformly at this fidelity).
	WordBits int
	// CorrectBits is the number of flipped bits the code corrects; one
	// more than that is at best detected, so any word with more than
	// CorrectBits flips counts as uncorrectable here.
	CorrectBits int
	// Name for reporting.
	Name string
}

// SECDED is the classic single-error-correct double-error-detect code
// over 64-bit words.
func SECDED() ECC { return ECC{WordBits: 64, CorrectBits: 1, Name: "SECDED-64"} }

// BCH4 is a stronger per-line code correcting 4 flips in a 512-bit
// cache line — the strength class the grouped layout needs.
func BCH4() ECC { return ECC{WordBits: 512, CorrectBits: 4, Name: "BCH4-512"} }

// Params configures the Monte Carlo.
type Params struct {
	TileRows, TileCols int // cell grid (default 1024×1024)
	LineBits           int // bits per cache line (default 512)
	Trials             int // strikes simulated (default 100 000)
	Seed               uint64

	// ClusterDist is the multi-bit-upset size distribution: entry i is
	// the relative weight of an (i+1)×(i+1) square cluster. The default
	// {60, 25, 10, 5} follows published MBU shapes: most strikes upset
	// 1 cell, a few percent upset a 4×4 patch.
	ClusterDist []float64
}

func (p *Params) applyDefaults() {
	if p.TileRows == 0 {
		p.TileRows = 1024
	}
	if p.TileCols == 0 {
		p.TileCols = 1024
	}
	if p.LineBits == 0 {
		p.LineBits = 512
	}
	if p.Trials == 0 {
		p.Trials = 100_000
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.ClusterDist == nil {
		p.ClusterDist = []float64{60, 25, 10, 5}
	}
}

// Outcome summarizes a simulation.
type Outcome struct {
	Layout Layout
	Code   ECC
	Trials int
	// Corrected counts strikes fully absorbed by the code.
	Corrected int
	// Uncorrectable counts strikes where at least one word exceeded
	// the correction capability.
	Uncorrectable int
	// PUncorrectable = Uncorrectable / Trials.
	PUncorrectable float64
	// MaxFlipsPerWord observed across all trials.
	MaxFlipsPerWord int
}

// splitmix64, local copy to keep the package self-contained.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := float64(r.next()>>11) / float64(uint64(1)<<53) * total
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// wordOf maps a cell to its ECC word identity under a layout.
//
// Grouped: a row holds cols/lineBits whole lines side by side; a line's
// bits are adjacent columns, carved into words of WordBits.
// → word = (row, col/wordBits).
//
// Interleaved: adjacent columns belong to different lines (stride
// interleave across the row, as in the baseline's AC/BD example), so a
// line's bits sit wordBits·stride apart. Two cells share a word only if
// col ≡ col' (mod stride) and they are in the same word segment.
// → word = (row, col%stride, (col/stride)/wordBits).
func wordOf(l Layout, row, col, wordBits, lineBits, cols int) [3]int {
	switch l {
	case LayoutGrouped:
		return [3]int{row, col / wordBits, 0}
	default: // LayoutInterleaved
		stride := cols / lineBits
		if stride < 1 {
			stride = 1
		}
		return [3]int{row, col % stride, (col / stride) / wordBits}
	}
}

// Simulate runs the Monte Carlo for one layout and code.
func Simulate(p Params, l Layout, e ECC) (Outcome, error) {
	p.applyDefaults()
	if e.WordBits <= 0 || e.CorrectBits < 0 {
		return Outcome{}, fmt.Errorf("reliability: bad ECC %+v", e)
	}
	if p.LineBits%e.WordBits != 0 && e.WordBits%p.LineBits != 0 {
		return Outcome{}, fmt.Errorf("reliability: word %d does not tile line %d", e.WordBits, p.LineBits)
	}
	if p.TileCols < p.LineBits {
		return Outcome{}, fmt.Errorf("reliability: tile of %d cols cannot hold a %d-bit line", p.TileCols, p.LineBits)
	}
	r := &rng{s: p.Seed}
	out := Outcome{Layout: l, Code: e, Trials: p.Trials}

	flips := make(map[[3]int]int, 16)
	for t := 0; t < p.Trials; t++ {
		size := r.pick(p.ClusterDist) + 1
		cr := r.intn(p.TileRows)
		cc := r.intn(p.TileCols)
		clear(flips)
		for dr := 0; dr < size; dr++ {
			for dc := 0; dc < size; dc++ {
				row, col := cr+dr, cc+dc
				if row >= p.TileRows || col >= p.TileCols {
					continue
				}
				flips[wordOf(l, row, col, e.WordBits, p.LineBits, p.TileCols)]++
			}
		}
		bad := false
		//lint:allow rangemap a max and an any over the counts do not depend on their order
		for _, n := range flips {
			if n > out.MaxFlipsPerWord {
				out.MaxFlipsPerWord = n
			}
			if n > e.CorrectBits {
				bad = true
			}
		}
		if bad {
			out.Uncorrectable++
		} else {
			out.Corrected++
		}
	}
	out.PUncorrectable = float64(out.Uncorrectable) / float64(out.Trials)
	return out, nil
}

// Compare runs the full 2×2 comparison the paper's discussion implies:
// both layouts under both codes, in a stable order (interleaved/
// grouped × SECDED/BCH4).
func Compare(p Params) ([]Outcome, error) {
	var outs []Outcome
	for _, l := range []Layout{LayoutInterleaved, LayoutGrouped} {
		for _, e := range []ECC{SECDED(), BCH4()} {
			o, err := Simulate(p, l, e)
			if err != nil {
				return nil, err
			}
			outs = append(outs, o)
		}
	}
	return outs, nil
}
