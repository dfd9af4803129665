// Package metrics holds the time-series and reporting helpers the
// experiment harness uses to render the paper's charts: series
// collection, derived rate series, CSV export, ASCII line charts for the
// terminal, and aligned text tables.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Point is one sample of a series: a time in milliseconds (the unit the
// paper's charts use) and a value.
type Point struct {
	T float64
	V float64
}

// Series is a named time series.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t, v float64) { s.Points = append(s.Points, Point{T: t, V: v}) }

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points) }

// Mean returns the average value, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// Max returns the maximum value, or 0 for an empty series.
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// Last returns the final value, or 0 for an empty series.
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].V
}

// Rate returns the per-second rate of change of a cumulative series:
// point i of the result is (v_i - v_{i-1}) / (t_i - t_{i-1}) with time
// in milliseconds, scaled to per-second.
func (s *Series) Rate(name string) Series {
	out := Series{Name: name}
	for i := 1; i < len(s.Points); i++ {
		dt := s.Points[i].T - s.Points[i-1].T
		if dt <= 0 {
			continue
		}
		rate := (s.Points[i].V - s.Points[i-1].V) / dt * 1000
		out.Add(s.Points[i].T, rate)
	}
	return out
}

// WriteCSV writes the series in long format: name,t_ms,value.
func WriteCSV(w io.Writer, series ...Series) error {
	if _, err := fmt.Fprintln(w, "series,t_ms,value"); err != nil {
		return err
	}
	for _, s := range series {
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", s.Name, p.T, p.V); err != nil {
				return err
			}
		}
	}
	return nil
}

// chartGlyphs mark the different series in an ASCII chart.
var chartGlyphs = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// Chart renders the series as an ASCII line chart of the given width and
// height (in characters), with a legend. All series share one x/y range.
// More series than glyphs cannot be told apart, so they are not drawn.
func Chart(w io.Writer, width, height int, series ...Series) error {
	if len(series) > len(chartGlyphs) {
		_, err := fmt.Fprintf(w, "(%d series: too many to chart)\n", len(series))
		return err
	}
	if width < 16 {
		width = 16
	}
	if height < 4 {
		height = 4
	}
	minT, maxT := math.Inf(1), math.Inf(-1)
	minV, maxV := 0.0, math.Inf(-1) // y axis anchored at 0, as in the paper's charts
	any := false
	for _, s := range series {
		for _, p := range s.Points {
			any = true
			minT = math.Min(minT, p.T)
			maxT = math.Max(maxT, p.T)
			minV = math.Min(minV, p.V)
			maxV = math.Max(maxV, p.V)
		}
	}
	if !any {
		_, err := fmt.Fprintln(w, "(no data)")
		return err
	}
	if maxT == minT {
		maxT = minT + 1
	}
	if maxV == minV {
		maxV = minV + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := chartGlyphs[si%len(chartGlyphs)]
		for _, p := range s.Points {
			x := int((p.T - minT) / (maxT - minT) * float64(width-1))
			y := int((p.V - minV) / (maxV - minV) * float64(height-1))
			row := height - 1 - y
			if row >= 0 && row < height && x >= 0 && x < width {
				grid[row][x] = g
			}
		}
	}
	for i, row := range grid {
		label := "          "
		switch i {
		case 0:
			label = fmt.Sprintf("%9.4g ", maxV)
		case height - 1:
			label = fmt.Sprintf("%9.4g ", minV)
		}
		if _, err := fmt.Fprintf(w, "%s|%s|\n", label, string(row)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%10s%-*s%s\n", fmt.Sprintf("%.4g ms ", minT), width-len(fmt.Sprintf("%.4g ms", maxT))+1, "", fmt.Sprintf("%.4g ms", maxT)); err != nil {
		return err
	}
	for si, s := range series {
		if _, err := fmt.Fprintf(w, "  %c %s\n", chartGlyphs[si%len(chartGlyphs)], s.Name); err != nil {
			return err
		}
	}
	return nil
}

// Table renders rows with aligned columns. The first row is treated as
// the header and separated by a rule.
func Table(w io.Writer, rows [][]string) error {
	if len(rows) == 0 {
		return nil
	}
	widths := make([]int, 0)
	for _, r := range rows {
		for i, c := range r {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(r []string) error {
		var b strings.Builder
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := writeRow(rows[0]); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total-2)); err != nil {
		return err
	}
	for _, r := range rows[1:] {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}
