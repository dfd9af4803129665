package bench

import (
	"fmt"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/stream"
)

// Ablation experiments for the design choices DESIGN.md calls out. They
// are not paper figures but quantify what each PJoin mechanism buys.
func init() {
	register(Experiment{ID: "abl-dropfly", Title: "Ablation: drop-on-the-fly on/off (asymmetric rates)", Run: runAblDropFly})
	register(Experiment{ID: "abl-index", Title: "Ablation: eager vs lazy punctuation index building", Run: runAblIndex})
	register(Experiment{ID: "abl-purge", Title: "Ablation: purge disabled (PJoin degenerates to XJoin-like state)", Run: runAblPurge})
	register(Experiment{ID: "ext-window", Title: "Extension (§6): sliding window combined with punctuations", Run: runExtWindow})
}

// runAblDropFly compares PJoin with and without drop-on-the-fly under
// the asymmetric workload where the mechanism matters most (§4.3: "most
// B tuples never become a part of the state").
func runAblDropFly(rc RunConfig) (*Report, error) {
	report := &Report{
		ID:    "abl-dropfly",
		Title: "Drop-on-the-fly ablation, A=10, B=40",
		Paper: "with the optimisation, tuples already covered by an opposite punctuation never enter the state",
		Rows:  [][]string{{"variant", "avg state", "dropped on fly", "purged", "results"}},
	}
	for _, disable := range []bool{false, true} {
		arrs, horizon, err := asymmetricWorkload(rc, defShort, 10, 40, 4)
		if err != nil {
			return nil, err
		}
		pj, err := pjoinFor(rc, fmt.Sprintf("pjoin-nodrop-%t", disable), 1, func(c *core.Config) { c.DisableDropOnTheFly = disable })
		if err != nil {
			return nil, err
		}
		res, err := rc.simulate(pj, arrs, horizon)
		if err != nil {
			return nil, err
		}
		name := "drop-on-the-fly"
		if disable {
			name = "no drop-on-the-fly"
		}
		s := stateSeries(name, res)
		report.Series = append(report.Series, s)
		report.Rows = append(report.Rows, []string{
			name, f1(s.Mean()), i64(res.Final.DroppedOnFly), i64(res.Final.Purged), i64(res.Final.TuplesOut),
		})
	}
	return report, nil
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

// runAblPurge shows that PJoin with purging disabled accumulates state
// like XJoin: the purge rules are what keeps the state bounded.
func runAblPurge(rc RunConfig) (*Report, error) {
	report := &Report{
		ID:    "abl-purge",
		Title: "Purge ablation, punct inter-arrival 40",
		Paper: "without the purge component the punctuations are useless for memory",
		Rows:  [][]string{{"variant", "avg state", "max state"}},
	}
	for _, disable := range []bool{false, true} {
		arrs, horizon, err := symmetricWorkload(rc, defShort, 40)
		if err != nil {
			return nil, err
		}
		pj, err := pjoinFor(rc, fmt.Sprintf("pjoin-nopurge-%t", disable), 1, func(c *core.Config) { c.DisablePurge = disable })
		if err != nil {
			return nil, err
		}
		res, err := rc.simulate(pj, arrs, horizon)
		if err != nil {
			return nil, err
		}
		name := "purge enabled"
		if disable {
			name = "purge disabled"
		}
		s := stateSeries(name, res)
		report.Series = append(report.Series, s)
		report.Rows = append(report.Rows, []string{name, f1(s.Mean()), f1(s.Max())})
	}
	if len(report.Series) == 2 {
		report.Notes = append(report.Notes, fmt.Sprintf(
			"state ratio disabled/enabled: %.1fx", report.Series[1].Mean()/report.Series[0].Mean()))
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
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"punctuations only", nil},
		{"window only", func(c *core.Config) {
			c.DisablePurge = true
			c.Window = window
		}},
		{"window + punctuations", func(c *core.Config) {
			c.Window = window
		}},
	}
	for vi, v := range variants {
		arrs, horizon, err := symmetricWorkload(rc, defShort, 40)
		if err != nil {
			return nil, err
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
