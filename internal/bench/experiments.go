package bench

import (
	"fmt"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// Default virtual horizons per experiment. The paper runs minutes of
// wall time; one virtual minute at 2 ms/tuple ≈ 30k tuples per stream is
// enough to show every trend.
const (
	defShort = 60_000 * stream.Millisecond
	defLong  = 120_000 * stream.Millisecond
	// defAsym is the Fig. 12/13 horizon: short enough that XJoin's
	// growing probe cost has not yet overtaken PJoin-1's purge overhead,
	// which is the regime the paper's chart shows.
	defAsym = 10_000 * stream.Millisecond
)

func init() {
	register(Experiment{ID: "fig5", Title: "PJoin vs XJoin, memory overhead (punct inter-arrival 40)", Run: runFig5})
	register(Experiment{ID: "fig6", Title: "PJoin state size vs punctuation inter-arrival (10/20/30)", Run: runFig6})
	register(Experiment{ID: "fig7", Title: "PJoin vs XJoin, tuple output over time", Run: runFig7})
	register(Experiment{ID: "fig8", Title: "Eager vs lazy purge, memory overhead (punct inter-arrival 10)", Run: runFig8})
	register(Experiment{ID: "fig9", Title: "Purge threshold vs tuple output (1/100/400/800)", Run: runFig9})
	register(Experiment{ID: "fig10", Title: "Asymmetric punctuation rates, memory overhead", Run: runFig10})
	register(Experiment{ID: "fig11", Title: "Asymmetric punctuation rates, tuple output", Run: runFig11})
	register(Experiment{ID: "fig12", Title: "PJoin-1 vs lazy PJoin vs XJoin, asymmetric rates, output", Run: runFig12})
	register(Experiment{ID: "fig13", Title: "PJoin-1 vs lazy PJoin vs XJoin, asymmetric rates, memory", Run: runFig13})
	register(Experiment{ID: "fig14", Title: "Punctuation propagation output over time", Run: runFig14})
	register(Experiment{ID: "table1", Title: "Event-listener registry configuration", Run: runTable1})
}

// runFig5 — paper Fig. 5: with punctuations every 40 tuples, the memory
// requirement of the PJoin state is insignificant compared to XJoin's.
func runFig5(rc RunConfig) (*Report, error) {
	arrs, horizon, err := symmetricWorkload(rc, defShort, 40)
	if err != nil {
		return nil, err
	}
	pj, err := pjoinFor(rc, "pjoin", 1, nil)
	if err != nil {
		return nil, err
	}
	resP, err := rc.simulate(pj, arrs, horizon)
	if err != nil {
		return nil, err
	}
	xj, err := xjoinFor(rc)
	if err != nil {
		return nil, err
	}
	resX, err := rc.simulate(xj, arrs, horizon)
	if err != nil {
		return nil, err
	}
	sp := stateSeries("PJoin-1", resP)
	sx := stateSeries("XJoin", resX)
	return &Report{
		ID:     "fig5",
		Title:  "PJoin vs XJoin, memory overhead, punct inter-arrival 40 tuples/punct",
		Paper:  "PJoin state is almost insignificant compared to XJoin; XJoin grows with the stream",
		Series: []Series{sp, sx},
		Rows: [][]string{
			{"operator", "avg state (tuples)", "max state", "final state", "results"},
			{"PJoin-1", f1(sp.Mean()), f1(sp.Max()), f1(sp.Last()), i64(resP.Final.TuplesOut)},
			{"XJoin", f1(sx.Mean()), f1(sx.Max()), f1(sx.Last()), i64(resX.Final.TuplesOut)},
		},
		Notes: []string{fmt.Sprintf("PJoin/XJoin average state ratio: %.3f", sp.Mean()/sx.Mean())},
	}, nil
}

// runFig6 — paper Fig. 6: the PJoin state grows with the punctuation
// inter-arrival (10 < 20 < 30 tuples/punctuation).
func runFig6(rc RunConfig) (*Report, error) {
	report := &Report{
		ID:    "fig6",
		Title: "PJoin state size vs punctuation inter-arrival",
		Paper: "larger punctuation inter-arrival => larger average state",
		Rows:  [][]string{{"punct inter-arrival", "avg state (tuples)", "max state"}},
	}
	for _, pm := range []float64{10, 20, 30} {
		arrs, horizon, err := symmetricWorkload(rc, defShort, pm)
		if err != nil {
			return nil, err
		}
		pj, err := pjoinFor(rc, fmt.Sprintf("pjoin-pm%g", pm), 1, nil)
		if err != nil {
			return nil, err
		}
		res, err := rc.simulate(pj, arrs, horizon)
		if err != nil {
			return nil, err
		}
		s := stateSeries(fmt.Sprintf("punct=%g", pm), res)
		report.Series = append(report.Series, s)
		report.Rows = append(report.Rows, []string{f1(pm), f1(s.Mean()), f1(s.Max())})
	}
	return report, nil
}

// runFig7 — paper Fig. 7: PJoin sustains a steady output rate while
// XJoin's declines as its growing state makes probing slower.
func runFig7(rc RunConfig) (*Report, error) {
	arrs, horizon, err := symmetricWorkload(rc, defLong, 40)
	if err != nil {
		return nil, err
	}
	pj, err := pjoinFor(rc, "pjoin", 1, nil)
	if err != nil {
		return nil, err
	}
	resP, err := rc.simulate(pj, arrs, horizon)
	if err != nil {
		return nil, err
	}
	xj, err := xjoinFor(rc)
	if err != nil {
		return nil, err
	}
	resX, err := rc.simulate(xj, arrs, horizon)
	if err != nil {
		return nil, err
	}
	op1 := outputSeries("PJoin-1", resP)
	ox := outputSeries("XJoin", resX)
	// Output rate over the first vs second half shows the decline.
	halfRate := func(s Series) (first, second float64) {
		r := s.Rate("r")
		if r.Len() < 2 {
			return 0, 0
		}
		half := r.Len() / 2
		var a, b float64
		for i, p := range r.Points {
			if i < half {
				a += p.V
			} else {
				b += p.V
			}
		}
		return a / float64(half), b / float64(r.Len()-half)
	}
	pf, ps := halfRate(op1)
	xf, xs := halfRate(ox)
	return &Report{
		ID:     "fig7",
		Title:  "PJoin vs XJoin, cumulative tuple output",
		Paper:  "PJoin output rate steady; XJoin output rate drops as its state grows",
		Series: []Series{op1, ox},
		Rows: [][]string{
			{"operator", "rate 1st half (tuples/s)", "rate 2nd half", "done at (ms)", "results"},
			{"PJoin-1", f1(pf), f1(ps), f1(float64(resP.Done) / 1e6), i64(resP.Final.TuplesOut)},
			{"XJoin", f1(xf), f1(xs), f1(float64(resX.Done) / 1e6), i64(resX.Final.TuplesOut)},
		},
	}, nil
}

// runFig8 — paper Fig. 8: eager purge minimises the state; lazy purge
// (threshold 10) needs more memory.
func runFig8(rc RunConfig) (*Report, error) {
	report := &Report{
		ID:    "fig8",
		Title: "Eager vs lazy purge, memory overhead, punct inter-arrival 10",
		Paper: "PJoin-1 state <= PJoin-10 state at all times",
		Rows:  [][]string{{"strategy", "avg state (tuples)", "max state"}},
	}
	for _, th := range []int{1, 10} {
		arrs, horizon, err := symmetricWorkload(rc, defShort, 10)
		if err != nil {
			return nil, err
		}
		pj, err := pjoinFor(rc, fmt.Sprintf("pjoin-%d", th), th, nil)
		if err != nil {
			return nil, err
		}
		res, err := rc.simulate(pj, arrs, horizon)
		if err != nil {
			return nil, err
		}
		s := stateSeries(fmt.Sprintf("PJoin-%d", th), res)
		report.Series = append(report.Series, s)
		report.Rows = append(report.Rows, []string{fmt.Sprintf("PJoin-%d", th), f1(s.Mean()), f1(s.Max())})
	}
	return report, nil
}

// runFig9 — paper Fig. 9: raising the purge threshold first raises the
// output rate (fewer purge scans), then lowers it again (probing a
// bigger state); purge thresholds 1, 100, 400, 800.
func runFig9(rc RunConfig) (*Report, error) {
	report := &Report{
		ID:    "fig9",
		Title: "Purge threshold vs tuple output, punct inter-arrival 10",
		Paper: "output rises from threshold 1 to ~100, then falls again at 400/800",
		Rows:  [][]string{{"strategy", "done at (ms)", "avg rate (tuples/s)", "avg state"}},
	}
	for _, th := range []int{1, 100, 400, 800} {
		arrs, horizon, err := symmetricWorkload(rc, defLong, 10)
		if err != nil {
			return nil, err
		}
		pj, err := pjoinFor(rc, fmt.Sprintf("pjoin-%d", th), th, nil)
		if err != nil {
			return nil, err
		}
		res, err := rc.simulate(pj, arrs, horizon)
		if err != nil {
			return nil, err
		}
		o := outputSeries(fmt.Sprintf("PJoin-%d", th), res)
		st := stateSeries("", res)
		rate := o.Last() / (float64(res.Done) / 1e9)
		report.Series = append(report.Series, o)
		report.Rows = append(report.Rows, []string{
			fmt.Sprintf("PJoin-%d", th),
			f1(float64(res.Done) / 1e6), f1(rate), f1(st.Mean()),
		})
	}
	return report, nil
}

// runFig10 — paper Fig. 10: with A's punctuation inter-arrival fixed at
// 10, slower punctuations from B leave the A state larger.
func runFig10(rc RunConfig) (*Report, error) {
	report := &Report{
		ID:    "fig10",
		Title: "Asymmetric punctuation inter-arrival, memory overhead (A=10 fixed)",
		Paper: "larger B inter-arrival => larger state; B state stays insignificant (drop-on-the-fly)",
		Rows:  [][]string{{"B punct inter-arrival", "avg state", "final A state", "final B state", "dropped on fly"}},
	}
	for _, pb := range []float64{10, 20, 40} {
		arrs, horizon, err := asymmetricWorkload(rc, defShort, 10, pb, 4)
		if err != nil {
			return nil, err
		}
		pj, err := pjoinFor(rc, fmt.Sprintf("pjoin-pb%g", pb), 1, nil)
		if err != nil {
			return nil, err
		}
		res, err := rc.simulate(pj, arrs, horizon)
		if err != nil {
			return nil, err
		}
		aStats, bStats := pj.StateStats()
		s := stateSeries(fmt.Sprintf("B=%g", pb), res)
		report.Series = append(report.Series, s)
		report.Rows = append(report.Rows, []string{
			f1(pb), f1(s.Mean()),
			fmt.Sprintf("%d", aStats.TotalTuples()),
			fmt.Sprintf("%d", bStats.TotalTuples()),
			i64(res.Final.DroppedOnFly),
		})
	}
	return report, nil
}

// runFig11 — paper Fig. 11: the slower the punctuations, the higher the
// tuple output (fewer purges, less purge overhead).
func runFig11(rc RunConfig) (*Report, error) {
	report := &Report{
		ID:    "fig11",
		Title: "Asymmetric punctuation inter-arrival, tuple output (A=10 fixed)",
		Paper: "slower B punctuations => slightly higher output (less purge overhead)",
		Rows:  [][]string{{"B punct inter-arrival", "done at (ms)", "avg rate (tuples/s)", "purge scans"}},
	}
	for _, pb := range []float64{10, 20, 40} {
		arrs, horizon, err := asymmetricWorkload(rc, defShort, 10, pb, 4)
		if err != nil {
			return nil, err
		}
		pj, err := pjoinFor(rc, fmt.Sprintf("pjoin-pb%g", pb), 1, nil)
		if err != nil {
			return nil, err
		}
		res, err := rc.simulate(pj, arrs, horizon)
		if err != nil {
			return nil, err
		}
		o := outputSeries(fmt.Sprintf("B=%g", pb), res)
		rate := o.Last() / (float64(res.Done) / 1e9)
		report.Series = append(report.Series, o)
		report.Rows = append(report.Rows, []string{
			f1(pb), f1(float64(res.Done) / 1e6), f1(rate), i64(res.Final.PurgeScanned),
		})
	}
	return report, nil
}

// runFig12 — paper Fig. 12: under asymmetric punctuation (A=10, B=20)
// PJoin-1's purge overhead makes it lag XJoin; a lazy threshold closes
// the gap.
func runFig12(rc RunConfig) (*Report, error) {
	rep, _, err := fig1213(rc)
	return rep, err
}

// runFig13 — paper Fig. 13: state sizes for the Fig. 12 configuration:
// either PJoin variant needs far less memory than XJoin.
func runFig13(rc RunConfig) (*Report, error) {
	_, rep, err := fig1213(rc)
	return rep, err
}

func fig1213(rc RunConfig) (*Report, *Report, error) {
	out := &Report{
		ID:    "fig12",
		Title: "PJoin-1 vs lazy PJoin vs XJoin, output, A=10 B=20",
		Paper: "PJoin-1 lags XJoin (purge overhead); lazy PJoin matches or beats XJoin",
		Rows:  [][]string{{"operator", "done at (ms)", "avg rate (tuples/s)", "results"}},
	}
	mem := &Report{
		ID:    "fig13",
		Title: "PJoin-1 vs lazy PJoin vs XJoin, memory, A=10 B=20",
		Paper: "both PJoin variants keep the state far below XJoin",
		Rows:  [][]string{{"operator", "avg state (tuples)", "max state"}},
	}
	run := func(name string, j simJoin) error {
		arrs, horizon, err := asymmetricWorkload(rc, defAsym, 10, 20, 16)
		if err != nil {
			return err
		}
		res, err := rc.simulate(j, arrs, horizon)
		if err != nil {
			return err
		}
		o := outputSeries(name, res)
		s := stateSeries(name, res)
		rate := o.Last() / (float64(res.Done) / 1e9)
		out.Series = append(out.Series, o)
		out.Rows = append(out.Rows, []string{name, f1(float64(res.Done) / 1e6), f1(rate), i64(res.Final.TuplesOut)})
		mem.Series = append(mem.Series, s)
		mem.Rows = append(mem.Rows, []string{name, f1(s.Mean()), f1(s.Max())})
		return nil
	}
	pj1, err := pjoinFor(rc, "pjoin-1", 1, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := run("PJoin-1", pj1); err != nil {
		return nil, nil, err
	}
	pjLazy, err := pjoinFor(rc, "pjoin-40", 40, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := run("PJoin-40", pjLazy); err != nil {
		return nil, nil, err
	}
	xj, err := xjoinFor(rc)
	if err != nil {
		return nil, nil, err
	}
	if err := run("XJoin", xj); err != nil {
		return nil, nil, err
	}
	return out, mem, nil
}

// runFig14 — paper Fig. 14: with aligned punctuations every 40 tuples
// and propagation configured to fire after each pair, the number of
// propagated punctuations grows steadily over time.
func runFig14(rc RunConfig) (*Report, error) {
	horizon := rc.horizon(defShort)
	arrs, err := gen.Synthetic(gen.Config{
		Seed:               rc.seed(),
		Duration:           horizon,
		A:                  gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 40},
		B:                  gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 40},
		AlignedPunctuation: true,
	})
	if err != nil {
		return nil, err
	}
	pj, err := pjoinFor(rc, "pjoin", 1, func(c *core.Config) {
		c.DisablePropagation = false
		// Start propagation after a pair of equivalent punctuations has
		// been received from both input streams (§4.4).
		c.Thresholds.PropagateCount = 2
	})
	if err != nil {
		return nil, err
	}
	res, err := rc.simulate(pj, arrs, horizon)
	if err != nil {
		return nil, err
	}
	s := punctOutSeries("punctuations out", res)
	rate := s.Rate("rate")
	return &Report{
		ID:     "fig14",
		Title:  "Punctuation propagation, aligned punctuations every 40 tuples",
		Paper:  "steady punctuation output rate over time",
		Series: []Series{s},
		Rows: [][]string{
			{"metric", "value"},
			{"punctuations in", i64(res.Final.PunctsIn[0] + res.Final.PunctsIn[1])},
			{"punctuations out", i64(res.Final.PunctsOut)},
			{"mean output rate (puncts/s)", f1(rate.Mean())},
		},
	}, nil
}

// runTable1 — paper Table 1: the event-listener registry of the lazy
// purge + lazy index build + push-mode propagation configuration.
func runTable1(rc RunConfig) (*Report, error) {
	cfg := core.Config{
		SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
		AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
	}
	cfg.Thresholds = core.Thresholds{
		Purge:          10,
		MemoryBytes:    64 << 20,
		DiskJoinIdle:   50 * stream.Millisecond,
		PropagateCount: 100,
	}
	j, err := core.New(cfg, &op.Collector{})
	if err != nil {
		return nil, err
	}
	rows := [][]string{{"event -> listeners"}}
	table := j.Table1()
	for _, line := range splitLines(table) {
		rows = append(rows, []string{line})
	}
	return &Report{
		ID:    "table1",
		Title: "Event-listener registry (lazy purge, lazy index build, push propagation)",
		Paper: "Table 1 lists the registry rows for this configuration",
		Rows:  rows,
	}, nil
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
