package bench

import (
	"fmt"
	"slices"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/stream"
)

// Ablation and extension experiments for the design choices DESIGN.md
// calls out. They are not paper figures but quantify what a PJoin
// mechanism buys. Purge and drop-on-the-fly have no ablation of their
// own: without them PJoin is XJoin, which fig5 and fig10 plot.
func init() {
	register(Experiment{ID: "abl-index", Title: "Ablation: eager vs lazy punctuation index building", Run: runAblIndex})
	register(Experiment{ID: "ext-window", Title: "Extension (§6): sliding window combined with punctuations", Run: runExtWindow})
}

// runAblIndex compares eager and lazy punctuation index building under
// the propagation workload (§3.5): both propagate everything; eager
// building spreads the scan cost while lazy batches it.
func runAblIndex(rc RunConfig) (*Report, error) {
	report := &Report{
		ID:    "abl-index",
		Title: "Eager vs lazy index building, aligned punctuations every 40 tuples",
		Paper: "same punctuation output; different index-scan placement",
		Rows:  [][]string{{"variant", "puncts out", "index scans", "done at (ms)"}},
	}
	for _, eager := range []bool{false, true} {
		horizon := rc.horizon(defShort)
		arrs, err := alignedWorkload(rc, horizon)
		if err != nil {
			return nil, err
		}
		pj, err := pjoinFor(rc, fmt.Sprintf("pjoin-eager-%t", eager), 1, func(c *core.Config) {
			c.DisablePropagation = false
			c.Thresholds.PropagateCount = 2
			c.EagerIndex = eager
		})
		if err != nil {
			return nil, err
		}
		res, err := rc.simulate(pj, arrs, horizon)
		if err != nil {
			return nil, err
		}
		name := "lazy index build"
		if eager {
			name = "eager index build"
		}
		report.Series = append(report.Series, punctOutSeries(name, res))
		report.Rows = append(report.Rows, []string{
			name, i64(res.Final.PunctsOut), i64(res.Final.IndexScanned), f1(float64(res.Done) / 1e6),
		})
	}
	return report, nil
}

// runExtWindow demonstrates the §6 sliding-window extension: state
// bounds from punctuations alone, from a time window alone, and from
// their combination — the combination is bounded by whichever mechanism
// bites first.
func runExtWindow(rc RunConfig) (*Report, error) {
	report := &Report{
		ID:    "ext-window",
		Title: "Punctuations vs window vs both, punct inter-arrival 40, window 1s",
		Paper: "§6: window invalidation composes with punctuation purge",
		Rows:  [][]string{{"variant", "avg state", "max state", "results"}},
	}
	const window = 1_000 * stream.Millisecond
	withWindow := func(c *core.Config) { c.Window = window }
	variants := []struct {
		name   string
		mutate func(*core.Config)
		puncts bool
	}{
		{"punctuations only", nil, true},
		{"window only", withWindow, false},
		{"window + punctuations", withWindow, true},
	}
	for vi, v := range variants {
		arrs, horizon, err := symmetricWorkload(rc, defShort, 40)
		if err != nil {
			return nil, err
		}
		if !v.puncts {
			// The same tuples at the same times, without their punctuations.
			arrs = slices.DeleteFunc(arrs, func(a gen.Arrival) bool { return a.Item.Kind == stream.KindPunct })
		}
		pj, err := pjoinFor(rc, fmt.Sprintf("pjoin-v%d", vi), 1, v.mutate)
		if err != nil {
			return nil, err
		}
		res, err := rc.simulate(pj, arrs, horizon)
		if err != nil {
			return nil, err
		}
		st := stateSeries(v.name, res)
		report.Series = append(report.Series, st)
		report.Rows = append(report.Rows, []string{
			v.name, f1(st.Mean()), f1(st.Max()), i64(res.Final.TuplesOut),
		})
	}
	report.Notes = append(report.Notes,
		"window-only results differ from the punctuation variants by design: the window drops pairs wider than 1s")
	return report, nil
}

// alignedWorkload builds the Fig. 14 workload (both sides punctuate the
// same keys in the same order, every 40 tuples).
func alignedWorkload(rc RunConfig, horizon stream.Time) ([]gen.Arrival, error) {
	return gen.Synthetic(gen.Config{
		Seed:               rc.seed(),
		Duration:           horizon,
		A:                  gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 40},
		B:                  gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 40},
		AlignedPunctuation: true,
	})
}
