package report

import (
	"fmt"
	"io"
	"strings"
)

// Heatmap renders a 2-D matrix of counts as a shaded text grid — the
// presentation form of the telemetry occupancy matrix. Each cell shows
// its value plus a shade character scaled to the matrix maximum, so hot
// tiles stand out in plain terminal output.
type Heatmap struct {
	title    string
	rowLabel string // e.g. "SAG"
	colLabel string // e.g. "CD"
	cells    [][]uint64
}

// shades maps a cell's fraction of the maximum to a density character;
// index 0 is an exact zero.
var shades = []byte{' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'}

// NewHeatmap creates a heatmap over cells[row][col]. Rows may be
// ragged; missing cells render as zero.
func NewHeatmap(title, rowLabel, colLabel string, cells [][]uint64) *Heatmap {
	return &Heatmap{title: title, rowLabel: rowLabel, colLabel: colLabel, cells: cells}
}

// shade picks the density character for v against the matrix maximum.
func shade(v, max uint64) byte {
	if v == 0 || max == 0 {
		return shades[0]
	}
	// Non-zero values start at shades[1]; the maximum gets the densest.
	i := 1 + int(uint64(len(shades)-2)*v/max)
	if i >= len(shades) {
		i = len(shades) - 1
	}
	return shades[i]
}

// Render writes the heatmap to w.
func (h *Heatmap) Render(w io.Writer) error {
	if h.title != "" {
		if _, err := fmt.Fprintln(w, h.title); err != nil {
			return err
		}
	}
	cols, max := 0, uint64(0)
	for _, row := range h.cells {
		if len(row) > cols {
			cols = len(row)
		}
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	if cols == 0 {
		_, err := fmt.Fprintln(w, "  (empty)")
		return err
	}
	cellW := len(fmt.Sprintf("%d", max))
	if cellW < len(h.colLabel)+1 {
		cellW = len(h.colLabel) + 1
	}
	rowW := len(fmt.Sprintf("%s%d", h.rowLabel, len(h.cells)-1))

	var b strings.Builder
	b.WriteString(fmt.Sprintf("  %-*s", rowW, ""))
	for c := 0; c < cols; c++ {
		b.WriteString(fmt.Sprintf("  %*s", cellW+2, fmt.Sprintf("%s%d", h.colLabel, c)))
	}
	if _, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " ")); err != nil {
		return err
	}
	for r, row := range h.cells {
		b.Reset()
		b.WriteString(fmt.Sprintf("  %-*s", rowW, fmt.Sprintf("%s%d", h.rowLabel, r)))
		for c := 0; c < cols; c++ {
			var v uint64
			if c < len(row) {
				v = row[c]
			}
			b.WriteString(fmt.Sprintf("  %c %*d", shade(v, max), cellW, v))
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " ")); err != nil {
			return err
		}
	}
	return nil
}
