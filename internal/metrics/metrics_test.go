package metrics

import (
	"math"
	"strings"
	"testing"
)

func sample() Series {
	s := Series{Name: "s"}
	s.Add(0, 0)
	s.Add(1000, 10)
	s.Add(2000, 30)
	return s
}

func TestSeriesStats(t *testing.T) {
	s := sample()
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if got := s.Mean(); math.Abs(got-40.0/3) > 1e-9 {
		t.Errorf("Mean = %g", got)
	}
	if s.Max() != 30 || s.Last() != 30 {
		t.Errorf("Max/Last = %g/%g", s.Max(), s.Last())
	}
	var empty Series
	if empty.Mean() != 0 || empty.Max() != 0 || empty.Last() != 0 {
		t.Error("empty series stats should be 0")
	}
}

func TestRate(t *testing.T) {
	src := sample()
	r := src.Rate("r")
	if r.Len() != 2 {
		t.Fatalf("rate points = %d", r.Len())
	}
	// 10 units over 1000 ms = 10/s; then 20 over 1000 ms = 20/s.
	if r.Points[0].V != 10 || r.Points[1].V != 20 {
		t.Errorf("rates = %v", r.Points)
	}
	// Zero-dt points are skipped.
	s := Series{Name: "z"}
	s.Add(5, 1)
	s.Add(5, 2)
	zr := s.Rate("r")
	if zr.Len() != 0 {
		t.Error("zero-dt rate not skipped")
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	if err := WriteCSV(&b, sample()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "series,t_ms,value\n") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "s,1000,10") {
		t.Errorf("missing row: %q", out)
	}
	if got := strings.Count(out, "\n"); got != 4 {
		t.Errorf("lines = %d", got)
	}
}

func TestChart(t *testing.T) {
	var b strings.Builder
	s2 := Series{Name: "other"}
	s2.Add(0, 5)
	s2.Add(2000, 25)
	if err := Chart(&b, 40, 8, sample(), s2); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Errorf("chart glyphs missing:\n%s", out)
	}
	if !strings.Contains(out, "s") || !strings.Contains(out, "other") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "30") {
		t.Errorf("y axis max missing:\n%s", out)
	}
}

func TestChartEmpty(t *testing.T) {
	var b strings.Builder
	if err := Chart(&b, 40, 8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no data") {
		t.Errorf("empty chart = %q", b.String())
	}
}

func TestChartTooManySeries(t *testing.T) {
	var b strings.Builder
	many := make([]Series, len(chartGlyphs)+1)
	for i := range many {
		many[i] = sample()
	}
	if err := Chart(&b, 40, 8, many...); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "too many to chart") || strings.Contains(b.String(), "|") {
		t.Errorf("chart of %d series = %q", len(many), b.String())
	}
}

func TestChartDegenerateRanges(t *testing.T) {
	var b strings.Builder
	s := Series{Name: "flat"}
	s.Add(5, 7)
	s.Add(5, 7)
	if err := Chart(&b, 20, 4, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "*") {
		t.Error("degenerate chart missing point")
	}
}

func TestChartMinimumDimensions(t *testing.T) {
	var b strings.Builder
	if err := Chart(&b, 1, 1, sample()); err != nil {
		t.Fatal(err)
	}
	if len(b.String()) == 0 {
		t.Error("chart with tiny dims should still render")
	}
}

func TestTable(t *testing.T) {
	var b strings.Builder
	err := Table(&b, [][]string{
		{"name", "value"},
		{"pjoin-1", "123"},
		{"xjoin", "45678"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("missing rule: %q", lines[1])
	}
	// Columns aligned: "value" starts at the same offset in all rows.
	off := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[2][off:], "123") {
		t.Errorf("misaligned: %q", lines[2])
	}
	if err := Table(&b, nil); err != nil {
		t.Errorf("empty table: %v", err)
	}
}
