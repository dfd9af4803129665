package bench

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pjoin/internal/obs/span"
	"pjoin/internal/stream"
)

// msT is one millisecond of stream time.
const msT = stream.Millisecond

// quick runs an experiment at a reduced horizon; shapes must already
// hold there (the full horizons only sharpen them).
func quick(t *testing.T, id string) *Report {
	t.Helper()
	return runAt(t, id, RunConfig{Quick: true})
}

// runAt runs an experiment with an explicit config; used where the
// quick horizon is too short for the effect to be established.
func runAt(t *testing.T, id string, rc RunConfig) *Report {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID == "" || rep.Title == "" {
		t.Error("report missing identity")
	}
	return rep
}

// cell parses a numeric table cell.
func cell(t *testing.T, rep *Report, row, col int) float64 {
	t.Helper()
	if row >= len(rep.Rows) || col >= len(rep.Rows[row]) {
		t.Fatalf("no cell (%d,%d) in %v", row, col, rep.Rows)
	}
	v, err := strconv.ParseFloat(rep.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric", row, col, rep.Rows[row][col])
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "table1",
		"abl-index", "ext-window", "ext-latency",
		"scale1",
	}
	have := map[string]bool{}
	for _, e := range Experiments() {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown id should error")
	}
}

func TestExperimentsSorted(t *testing.T) {
	exps := Experiments()
	for i := 1; i < len(exps); i++ {
		if exps[i-1].ID > exps[i].ID {
			t.Fatal("Experiments() not sorted")
		}
	}
}

func TestFig5Shape(t *testing.T) {
	rep := quick(t, "fig5")
	pjAvg, xjAvg := cell(t, rep, 1, 1), cell(t, rep, 2, 1)
	if pjAvg*4 > xjAvg {
		t.Errorf("PJoin avg state %.1f not well below XJoin %.1f", pjAvg, xjAvg)
	}
	// Same result counts: the purge never loses results.
	if rep.Rows[1][4] != rep.Rows[2][4] {
		t.Errorf("result counts differ: %s vs %s", rep.Rows[1][4], rep.Rows[2][4])
	}
}

// TestTracedFigureHoldsARecordPerInputTuple: with a tracer attached
// (pjoinbench -fig N -trace) the simulated drive admits every tuple, so
// the trace holds one tuple_probe per input tuple of every operator the
// figure ran — and the figure itself is what it is untraced, since the
// admission only copies and stamps.
func TestTracedFigureHoldsARecordPerInputTuple(t *testing.T) {
	rec := &span.Recorder{}
	work := &WorkLog{}
	traced := runAt(t, "fig5", RunConfig{Quick: true, Tracer: rec, Work: work})
	var in, purgeRuns int64
	for _, row := range work.Rows {
		in += row.M.TuplesIn[0] + row.M.TuplesIn[1]
		purgeRuns += row.M.PurgeRuns
	}
	if got := rec.Count(span.KindTupleProbe); got != in || in == 0 {
		t.Errorf("tuple_probe spans: %d, operators consumed %d tuples", got, in)
	}
	if got := rec.Count(span.KindPurgeRun); got != purgeRuns || purgeRuns == 0 {
		t.Errorf("purge_run spans: %d, Metrics.PurgeRuns %d", got, purgeRuns)
	}
	if plain := quick(t, "fig5"); !reflect.DeepEqual(plain.Rows, traced.Rows) {
		t.Errorf("tracing changed the figure:\n%v\n%v", plain.Rows, traced.Rows)
	}
}

func TestFig6Shape(t *testing.T) {
	rep := quick(t, "fig6")
	s10, s20, s30 := cell(t, rep, 1, 1), cell(t, rep, 2, 1), cell(t, rep, 3, 1)
	if !(s10 < s20 && s20 < s30) {
		t.Errorf("state not ordered by inter-arrival: %g %g %g", s10, s20, s30)
	}
}

func TestFig7Shape(t *testing.T) {
	rep := runAt(t, "fig7", RunConfig{Duration: 60_000 * msT})
	// PJoin 2nd-half rate close to 1st half; XJoin clearly declining.
	p1, p2 := cell(t, rep, 1, 1), cell(t, rep, 1, 2)
	x1, x2 := cell(t, rep, 2, 1), cell(t, rep, 2, 2)
	if p2 < p1*0.7 {
		t.Errorf("PJoin rate not steady: %g -> %g", p1, p2)
	}
	if x2 > x1*0.85 {
		t.Errorf("XJoin rate not declining: %g -> %g", x1, x2)
	}
	if rep.Rows[1][4] != rep.Rows[2][4] {
		t.Error("result counts differ")
	}
}

func TestFig8Shape(t *testing.T) {
	rep := quick(t, "fig8")
	eager, lazy := cell(t, rep, 1, 1), cell(t, rep, 2, 1)
	if eager >= lazy {
		t.Errorf("eager purge state %g should be below lazy %g", eager, lazy)
	}
}

func TestFig9Shape(t *testing.T) {
	rep := quick(t, "fig9")
	r1, r100 := cell(t, rep, 1, 2), cell(t, rep, 2, 2)
	r400, r800 := cell(t, rep, 3, 2), cell(t, rep, 4, 2)
	if !(r1 < r100) {
		t.Errorf("eager purge should be slower than threshold 100: %g vs %g", r1, r100)
	}
	if !(r100 > r400 && r400 > r800) {
		t.Errorf("rates should fall beyond the sweet spot: %g %g %g", r100, r400, r800)
	}
	// Memory ordered the other way.
	m1, m800 := cell(t, rep, 1, 3), cell(t, rep, 4, 3)
	if m1 >= m800 {
		t.Errorf("state should grow with threshold: %g vs %g", m1, m800)
	}
}

func TestFig10Shape(t *testing.T) {
	rep := quick(t, "fig10")
	s10, s20, s40 := cell(t, rep, 1, 1), cell(t, rep, 2, 1), cell(t, rep, 3, 1)
	if !(s10 < s40 && s20 < s40) {
		t.Errorf("state not increasing with B inter-arrival: %g %g %g", s10, s20, s40)
	}
	// Drop-on-the-fly counts grow with the rate gap.
	d10, d40 := cell(t, rep, 1, 4), cell(t, rep, 3, 4)
	if d40 <= d10 {
		t.Errorf("dropped-on-fly should grow with asymmetry: %g vs %g", d10, d40)
	}
}

func TestFig11Shape(t *testing.T) {
	rep := runAt(t, "fig11", RunConfig{Duration: 30_000 * msT})
	r10, r40 := cell(t, rep, 1, 2), cell(t, rep, 3, 2)
	if r40 <= r10 {
		t.Errorf("slower punctuation should give higher output: %g vs %g", r10, r40)
	}
	p10, p40 := cell(t, rep, 1, 3), cell(t, rep, 3, 3)
	if p40 >= p10 {
		t.Errorf("slower punctuation should scan less: %g vs %g", p10, p40)
	}
}

func TestFig12And13Shape(t *testing.T) {
	out := runAt(t, "fig12", RunConfig{Duration: 10_000 * msT})
	rP1, rLazy, rX := cell(t, out, 1, 2), cell(t, out, 2, 2), cell(t, out, 3, 2)
	if rP1 >= rX {
		t.Errorf("PJoin-1 (%g) should lag XJoin (%g) here", rP1, rX)
	}
	if rLazy < rX {
		t.Errorf("lazy PJoin (%g) should match or beat XJoin (%g)", rLazy, rX)
	}
	mem := runAt(t, "fig13", RunConfig{Duration: 10_000 * msT})
	mP1, mLazy, mX := cell(t, mem, 1, 1), cell(t, mem, 2, 1), cell(t, mem, 3, 1)
	if mP1*2 > mX || mLazy*2 > mX {
		t.Errorf("PJoin states (%g, %g) not well below XJoin (%g)", mP1, mLazy, mX)
	}
}

func TestFig14Shape(t *testing.T) {
	rep := quick(t, "fig14")
	in, out := cell(t, rep, 1, 1), cell(t, rep, 2, 1)
	if out == 0 {
		t.Fatal("no punctuations propagated")
	}
	// In the ideal aligned case nearly everything propagates by EOS.
	if out < in*0.95 {
		t.Errorf("propagated %g of %g punctuations", out, in)
	}
	// Steady output: the cumulative series should be roughly linear —
	// the last quarter must contain some propagation activity.
	s := rep.Series[0]
	if s.Len() < 8 {
		t.Fatal("series too short")
	}
	q3 := s.Points[s.Len()*3/4].V
	if s.Last() <= q3 {
		t.Error("propagation stalled in the last quarter")
	}
}

func TestTable1(t *testing.T) {
	rep := quick(t, "table1")
	joined := ""
	for _, r := range rep.Rows {
		joined += strings.Join(r, " ") + "\n"
	}
	for _, want := range []string{"state-purge", "state-relocation", "index-build", "punctuation-propagation", "disk-join"} {
		if !strings.Contains(joined, want) {
			t.Errorf("table1 missing %s:\n%s", want, joined)
		}
	}
}

func TestAblationIndex(t *testing.T) {
	rep := quick(t, "abl-index")
	if rep.Rows[1][1] != rep.Rows[2][1] {
		t.Errorf("eager and lazy index build must propagate the same punctuations: %v", rep.Rows)
	}
}

func TestExtensionWindowShape(t *testing.T) {
	rep := quick(t, "ext-window")
	punctOnly, windowOnly, both := cell(t, rep, 1, 1), cell(t, rep, 2, 1), cell(t, rep, 3, 1)
	if both > punctOnly || both > windowOnly {
		t.Errorf("combined state %g should be <= each single mechanism (%g, %g)",
			both, punctOnly, windowOnly)
	}
	// The two windowed variants must agree on results (same join
	// semantics); the punctuation-only variant joins across the window.
	if rep.Rows[2][3] != rep.Rows[3][3] {
		t.Errorf("windowed variants disagree: %v", rep.Rows)
	}
}

func TestReportRender(t *testing.T) {
	rep := quick(t, "fig8")
	var b strings.Builder
	if err := rep.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"fig8", "paper:", "PJoin-1", "PJoin-10"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestSeedChangesWorkloadNotShape(t *testing.T) {
	e, _ := Get("fig6")
	r1, err := e.Run(RunConfig{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s10, s20, s30 := cell(t, r1, 1, 1), cell(t, r1, 2, 1), cell(t, r1, 3, 1)
	if !(s10 < s20 && s20 < s30) {
		t.Errorf("fig6 ordering lost at seed 7: %g %g %g", s10, s20, s30)
	}
}

// The headline shapes must hold for every seed, not just the default:
// fig5's memory gap and fig12's three-way ordering are re-checked on
// two extra seeds.
func TestShapesRobustAcrossSeeds(t *testing.T) {
	for _, seed := range []uint64{2, 3} {
		rep := runAt(t, "fig5", RunConfig{Quick: true, Seed: seed})
		pj, xj := cell(t, rep, 1, 1), cell(t, rep, 2, 1)
		if pj*4 > xj {
			t.Errorf("seed %d: fig5 gap lost: %g vs %g", seed, pj, xj)
		}
		out := runAt(t, "fig12", RunConfig{Duration: 10_000 * msT, Seed: seed})
		rP1, rLazy, rX := cell(t, out, 1, 2), cell(t, out, 2, 2), cell(t, out, 3, 2)
		if !(rP1 < rX && rX < rLazy) {
			t.Errorf("seed %d: fig12 ordering lost: %g %g %g", seed, rP1, rX, rLazy)
		}
	}
}

// TestScale1Shape asserts the tentpole acceptance criterion: 4 shards
// reach at least 2x the single-instance model throughput, and more
// shards never reduce it. Wall-clock columns are machine-dependent and
// not asserted; the model speedup (column 5) is deterministic.
func TestScale1Shape(t *testing.T) {
	rep := quick(t, "scale1")
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d, want header + 4 shard counts", len(rep.Rows))
	}
	s1 := cell(t, rep, 1, 5)
	s2 := cell(t, rep, 2, 5)
	s4 := cell(t, rep, 3, 5)
	s8 := cell(t, rep, 4, 5)
	if s1 != 1.0 {
		t.Errorf("single-shard speedup = %.2f, want 1.00", s1)
	}
	if s4 < 2.0 {
		t.Errorf("4-shard model speedup = %.2f, want >= 2x single instance", s4)
	}
	if !(s1 < s2 && s2 < s4 && s4 < s8) {
		t.Errorf("speedup not monotone: %v %v %v %v", s1, s2, s4, s8)
	}
	// Routing balance: hash partitioning keeps skew near 1.
	for row := 1; row <= 4; row++ {
		if skew := cell(t, rep, row, 6); skew > 1.5 {
			t.Errorf("row %d: shard skew %.2f too high", row, skew)
		}
	}
	// The custom shard sweep is honoured.
	rep2 := runAt(t, "scale1", RunConfig{Quick: true, Shards: []int{1, 3}})
	if len(rep2.Rows) != 3 {
		t.Fatalf("custom sweep rows = %d, want header + 2", len(rep2.Rows))
	}
	if got := cell(t, rep2, 2, 0); got != 3 {
		t.Errorf("custom sweep shard count = %v, want 3", got)
	}
}
