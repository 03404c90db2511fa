// Package addr implements physical-address translation for the simulated
// memory system: physical address ⇄ (channel, rank, bank, row, column),
// and the FgNVM-specific projection of (row, column) onto the
// two-dimensional bank subdivision (subarray group, column division).
//
// Terminology follows the paper:
//
//   - A column here is one cache line worth of data (64 B): the unit a
//     single column command transfers over 8 DDR beats across the rank.
//   - A subarray group (SAG) is a horizontal slice of the bank: a group
//     of tile rows sharing a local wordline decoder and a row latch.
//   - A column division (CD) is a vertical slice: a group of tile columns
//     sharing local Y-select enables and CSL latches.
//
// Rows are distributed across SAGs and columns across CDs by simple
// division, so consecutive rows fall into the same SAG and consecutive
// columns into the same CD — matching the paper's layout where one tile
// holds whole cache lines rather than interleaving bits across the row.
package addr

import (
	"fmt"
	"math/bits"
)

// Geometry describes the simulated memory organization.
type Geometry struct {
	Channels  int // independent channels
	Ranks     int // ranks per channel
	Banks     int // banks per rank
	Rows      int // rows per bank
	Cols      int // cache-line columns per row
	LineBytes int // bytes per column (cache line)

	SAGs int // subarray groups per bank (vertical subdivision count)
	CDs  int // column divisions per bank (horizontal subdivision count)
}

// PaperGeometry returns the evaluation setup from Table 2 scaled for
// simulation: one channel, one rank, 8 banks, 4 SAGs × 4 CDs, a 512-byte
// device row buffer aggregated over 8 devices into a 4 KB logical row
// (64 cache-line columns), and 64 K rows per bank.
func PaperGeometry() Geometry {
	return Geometry{
		Channels:  1,
		Ranks:     1,
		Banks:     8,
		Rows:      65536,
		Cols:      64,
		LineBytes: 64,
		SAGs:      4,
		CDs:       4,
	}
}

// Validate checks that all dimensions are positive powers of two and the
// subdivisions divide the bank evenly.
func (g Geometry) Validate() error {
	check := func(name string, v int) error {
		if v <= 0 {
			return fmt.Errorf("addr: %s = %d, must be positive", name, v)
		}
		if v&(v-1) != 0 {
			return fmt.Errorf("addr: %s = %d, must be a power of two", name, v)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"Channels", g.Channels}, {"Ranks", g.Ranks}, {"Banks", g.Banks},
		{"Rows", g.Rows}, {"Cols", g.Cols}, {"LineBytes", g.LineBytes},
		{"SAGs", g.SAGs}, {"CDs", g.CDs},
	} {
		if err := check(c.name, c.v); err != nil {
			return err
		}
	}
	if g.SAGs > g.Rows {
		return fmt.Errorf("addr: SAGs %d > Rows %d", g.SAGs, g.Rows)
	}
	if g.CDs > g.Cols {
		return fmt.Errorf("addr: CDs %d > Cols %d", g.CDs, g.Cols)
	}
	return nil
}

// TotalBytes returns the capacity of the whole memory system.
func (g Geometry) TotalBytes() uint64 {
	return uint64(g.Channels) * uint64(g.Ranks) * uint64(g.Banks) *
		uint64(g.Rows) * uint64(g.Cols) * uint64(g.LineBytes)
}

// RowBytes returns the bytes held by one full row of a bank.
func (g Geometry) RowBytes() int { return g.Cols * g.LineBytes }

// SegmentBytes returns the bytes of one CD-wide segment of a row — the
// amount sensed by a Partial-Activation.
func (g Geometry) SegmentBytes() int { return g.RowBytes() / g.CDs }

// RowsPerSAG returns the number of rows in each subarray group.
func (g Geometry) RowsPerSAG() int { return g.Rows / g.SAGs }

// ColsPerCD returns the number of cache-line columns in each column
// division.
func (g Geometry) ColsPerCD() int { return g.Cols / g.CDs }

// Location identifies one cache line within the memory system.
type Location struct {
	Channel int
	Rank    int
	Bank    int
	Row     int
	Col     int
}

// SAG returns the subarray group of a row. The low row-address bits
// select the SAG, so consecutive row numbers land in different SAGs —
// the standard SALP-style mapping that exposes subarray parallelism to
// workloads whose footprint covers only part of the row space.
func (g Geometry) SAG(row int) int { return row % g.SAGs }

// CD returns the column division of a column. Cache lines round-robin
// across the CDs (col % CDs), matching the paper's data placement: all
// BITS of one cache line live in one tile, while consecutive LINES land
// in consecutive tiles of the row — so a streaming walk activates
// successive CDs, which can sense in parallel, instead of hammering one.
func (g Geometry) CD(col int) int { return col % g.CDs }

// Interleave selects the bit-field order used to decompose a physical
// address. All orders keep the column as the lowest field above the line
// offset (open-page friendly) and the row as the highest.
type Interleave int

const (
	// RowBankRankChanCol: row | bank | rank | channel | column | offset.
	// Consecutive lines walk within one row (maximum row-buffer hits);
	// consecutive rows stay in the same bank.
	RowBankRankChanCol Interleave = iota
	// RowColBankRankChan: row | column | bank | rank | channel | offset.
	// Consecutive cache lines round-robin across channels/ranks/banks
	// (maximum bank-level parallelism).
	RowColBankRankChan
)

func (iv Interleave) String() string {
	switch iv {
	case RowBankRankChanCol:
		return "row:bank:rank:chan:col"
	case RowColBankRankChan:
		return "row:col:bank:rank:chan"
	default:
		return fmt.Sprintf("Interleave(%d)", int(iv))
	}
}

// Mapper translates between physical addresses and Locations for a fixed
// geometry and interleave.
type Mapper struct {
	g  Geometry
	iv Interleave

	offBits  uint
	colBits  uint
	bankBits uint
	rankBits uint
	chanBits uint
	rowBits  uint
}

// NewMapper builds a Mapper, validating the geometry.
func NewMapper(g Geometry, iv Interleave) (*Mapper, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if iv != RowBankRankChanCol && iv != RowColBankRankChan {
		return nil, fmt.Errorf("addr: unknown interleave %d", int(iv))
	}
	return &Mapper{
		g:        g,
		iv:       iv,
		offBits:  log2(g.LineBytes),
		colBits:  log2(g.Cols),
		bankBits: log2(g.Banks),
		rankBits: log2(g.Ranks),
		chanBits: log2(g.Channels),
		rowBits:  log2(g.Rows),
	}, nil
}

// MustNewMapper is NewMapper but panics on error.
func MustNewMapper(g Geometry, iv Interleave) *Mapper {
	m, err := NewMapper(g, iv)
	if err != nil {
		panic(err)
	}
	return m
}

func log2(v int) uint { return uint(bits.TrailingZeros(uint(v))) }

// Geometry returns the mapper's geometry.
func (m *Mapper) Geometry() Geometry { return m.g }

// AddressBits returns the number of significant physical address bits.
func (m *Mapper) AddressBits() uint {
	return m.offBits + m.colBits + m.bankBits + m.rankBits + m.chanBits + m.rowBits
}

// Decode splits a physical address into a Location. Address bits above
// the modeled capacity wrap around (the simulated footprint is expected
// to fit; wrapping keeps arbitrary trace addresses usable).
func (m *Mapper) Decode(pa uint64) Location {
	v := pa >> m.offBits
	take := func(bits uint) int {
		f := int(v & ((1 << bits) - 1))
		v >>= bits
		return f
	}
	var loc Location
	switch m.iv {
	case RowBankRankChanCol:
		loc.Col = take(m.colBits)
		loc.Channel = take(m.chanBits)
		loc.Rank = take(m.rankBits)
		loc.Bank = take(m.bankBits)
		loc.Row = take(m.rowBits)
	case RowColBankRankChan:
		loc.Channel = take(m.chanBits)
		loc.Rank = take(m.rankBits)
		loc.Bank = take(m.bankBits)
		loc.Col = take(m.colBits)
		loc.Row = take(m.rowBits)
	}
	return loc
}

// Encode is the inverse of Decode; the returned address is line-aligned.
func (m *Mapper) Encode(loc Location) uint64 {
	var v uint64
	put := func(field int, bits uint) {
		v = (v << bits) | uint64(field)&((1<<bits)-1)
	}
	switch m.iv {
	case RowBankRankChanCol:
		put(loc.Row, m.rowBits)
		put(loc.Bank, m.bankBits)
		put(loc.Rank, m.rankBits)
		put(loc.Channel, m.chanBits)
		put(loc.Col, m.colBits)
	case RowColBankRankChan:
		put(loc.Row, m.rowBits)
		put(loc.Col, m.colBits)
		put(loc.Bank, m.bankBits)
		put(loc.Rank, m.rankBits)
		put(loc.Channel, m.chanBits)
	}
	return v << m.offBits
}

// Valid reports whether loc is inside the geometry.
func (m *Mapper) Valid(loc Location) bool {
	g := m.g
	return loc.Channel >= 0 && loc.Channel < g.Channels &&
		loc.Rank >= 0 && loc.Rank < g.Ranks &&
		loc.Bank >= 0 && loc.Bank < g.Banks &&
		loc.Row >= 0 && loc.Row < g.Rows &&
		loc.Col >= 0 && loc.Col < g.Cols
}
