// Package report renders the paper's tables and figures from pipeline
// results: aligned ASCII tables for the terminal, CSV for downstream
// plotting, an ASCII scatter for Figure 3, and the normalized radar axes of
// Figure 4.
package report

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table with optional CSV export.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; it must match the header arity.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Header) {
		panic(fmt.Sprintf("report: row arity %d, header arity %d", len(cells), len(t.Header)))
	}
	t.Rows = append(t.Rows, cells)
}

// Render produces the aligned text representation.
func (t *Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV produces an RFC-4180-ish CSV (quotes fields containing separators).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float with the given decimals — the cell helper used all over
// the table builders.
func F(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}

// I formats an int cell.
func I(v int) string { return fmt.Sprintf("%d", v) }

// Scatter renders a crude ASCII scatter plot of (x, y) points on a
// width×height character grid, marking highlighted indices with '*' and the
// rest with '·' — the terminal rendition of Figure 3's projections.
func Scatter(title string, xs, ys []float64, highlight map[int]bool, width, height int) string {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("report: scatter arity mismatch %d vs %d", len(xs), len(ys)))
	}
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	minX, maxX := minMax(xs)
	minY, maxY := minMax(ys)
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	plot := func(i int, mark byte) {
		x := scaleTo(xs[i], minX, maxX, width-1)
		y := height - 1 - scaleTo(ys[i], minY, maxY, height-1)
		grid[y][x] = mark
	}
	// Plain points first, then highlights so they stay visible.
	for i := range xs {
		if !highlight[i] {
			plot(i, '.')
		}
	}
	for i := range xs {
		if highlight[i] {
			plot(i, '*')
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (y: %.4g..%.4g, x: %.4g..%.4g)\n", title, minY, maxY, minX, maxX)
	for _, row := range grid {
		b.WriteByte('|')
		b.Write(row)
		b.WriteByte('\n')
	}
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", width))
	b.WriteByte('\n')
	return b.String()
}

func minMax(vals []float64) (lo, hi float64) {
	if len(vals) == 0 {
		return 0, 1
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func scaleTo(v, lo, hi float64, maxIdx int) int {
	if hi <= lo {
		return 0
	}
	i := int((v - lo) / (hi - lo) * float64(maxIdx))
	if i < 0 {
		i = 0
	}
	if i > maxIdx {
		i = maxIdx
	}
	return i
}

// RadarAxis is one spoke of a Figure 4 radar plot.
type RadarAxis struct {
	Name  string
	Value float64 // normalized to [0, 1]
}

// Radar holds one solution's radar plot data.
type Radar struct {
	Label string
	Axes  []RadarAxis
}

// Render lists the spokes with a bar rendering of the normalized value.
func (r Radar) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Label)
	for _, a := range r.Axes {
		bars := int(a.Value*20 + 0.5)
		if bars > 20 {
			bars = 20
		}
		if bars < 0 {
			bars = 0
		}
		fmt.Fprintf(&b, "  %-18s %5.2f %s\n", a.Name, a.Value, strings.Repeat("#", bars))
	}
	return b.String()
}
