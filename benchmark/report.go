package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// metricValue is one metric in the machine-readable result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine reports every end-to-end metric of an untraced run and
// every per-layer metric of a traced one.
func resultLine(wr *workloadReport, traced bool) result {
	res := result{
		Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed,
		Metrics: make(map[string]metricValue),
	}
	if traced {
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{wr.PerLayer[m.Name], m.Unit}
		}
		return res
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{wr.Live[m.Name].Median, m.Unit}
	}
	return res
}

func writeJSON(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// printReport prints every metric by name, with its unit, per workload.
func printReport(w io.Writer, rep *report, traced bool) {
	fmt.Fprintf(w, "seed %d, %s, %d CPUs, calibration median %.2f ms\n", rep.Seed, rep.GoVersion, rep.CPUs, rep.CalibMs)
	for _, wr := range rep.Workloads {
		noisy := 0
		for _, r := range wr.Runs {
			if r.Noisy {
				noisy++
			}
		}
		fmt.Fprintf(w, "\n%s (%s loop): %d tuples + %d punctuations in, %d results; %d timed rounds (%d noisy), failed %d of %d\n",
			wr.Name, wr.Loop, wr.Tuples, wr.Puncts, wr.Results, len(wr.Runs), noisy, wr.Failed, wr.Attempted)
		for _, f := range wr.Faults {
			fmt.Fprintf(w, "  FAULT %s\n", f)
		}
		fmt.Fprintf(w, "  %-32s %-9s %14s %14s %14s %14s %14s %3s\n", "end-to-end and live", "unit", "median", "min", "q1", "q3", "max", "n")
		for _, m := range compared() {
			d := wr.Live[m.Name]
			fmt.Fprintf(w, "  %-32s %-9s %14.4f %14.4f %14.4f %14.4f %14.4f %3d\n", m.Name, m.Unit, d.Median, d.Min, d.Q1, d.Q3, d.Max, d.N)
		}
		if !traced {
			continue
		}
		fmt.Fprintf(w, "  %-32s %-9s %14s\n", "per-layer", "unit", "value")
		for _, m := range perLayer[len(liveTimed):] {
			fmt.Fprintf(w, "  %-32s %-9s %14.4f\n", m.Name, m.Unit, wr.PerLayer[m.Name])
		}
		fmt.Fprintf(w, "  spans: %s\n", wr.TraceFile)
	}
}

// compared are the metrics with a distribution over rounds: the bounded
// end-to-end ones and the live pipeline's timed readings.
func compared() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), liveTimed...)
}

// calibDrift is how far two sessions' calibration medians may differ
// before their timed metrics cannot be compared.
const calibDrift = 0.10

// compareFiles prints, per compared metric and workload, both medians
// with quartiles, the change from A to B, the bound and a verdict:
//
//	ok          B is not worse than A by more than the bound
//	regressed   B is worse than A by more than the bound
//	unresolved  the noise is wider than the bound, or (timed metrics) the
//	            host ran at different speeds: calibration medians differ
//	            by more than 10%; unless every reading of B is better than
//	            every reading of A
//
// Two sessions of the same seed ran the same input in the same round, so
// the change is the median of the paired per-round ratios and the noise
// is their quartile spread; what the inputs of one session differ by
// cancels. Sessions of different seeds compare medians, and the noise is
// the wider of their own quartile spreads. It reports whether any row was
// not ok.
func compareFiles(w io.Writer, pathA, pathB string) (notOK bool, err error) {
	a, err := readJSON(pathA)
	if err != nil {
		return false, err
	}
	b, err := readJSON(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s, B = %s\n", pathA, pathB)
	return compareReports(w, a, b), nil
}

func compareReports(w io.Writer, a, b *report) (notOK bool) {
	drift := math.Abs(a.CalibMs-b.CalibMs) / math.Min(a.CalibMs, b.CalibMs)
	paired := a.Seed == b.Seed
	how := "medians compared (different seeds)"
	if paired {
		how = "rounds paired (same seed)"
	}
	fmt.Fprintf(w, "A: seed %d, calibration %.2f ms; B: seed %d, calibration %.2f ms (drift %.1f%%); %s\n",
		a.Seed, a.CalibMs, b.Seed, b.CalibMs, 100*drift, how)
	fmt.Fprintf(w, "%-16s %-29s %12s %-25s %12s %-25s %8s %7s %6s  %s\n", "workload", "metric", "A median", "[q1, q3]", "B median", "[q1, q3]", "change", "noise", "bound", "verdict")
	byName := make(map[string]*workloadReport)
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			continue
		}
		sa, sb := series(wa), series(wb)
		for _, m := range compared() {
			va, vb := sa[m.Name], sb[m.Name]
			da, db := summarize(va), summarize(vb)
			change := db.Median/da.Median - 1
			noise := math.Max(da.spread(), db.spread())
			if paired {
				n := min(len(va), len(vb))
				ratios := make([]float64, n)
				for i := range ratios {
					ratios[i] = vb[i]/va[i] - 1
				}
				d := summarize(ratios)
				change, noise = d.Median, d.Q3-d.Q1
			}
			if min(len(va), len(vb)) < minRounds {
				noise = math.Inf(1) // too few readings to tell noise from change
			}
			// worse is the change in the bad direction; clear says every
			// reading of B is better than every reading of A.
			worse, clear := change, db.Max < da.Min
			if m.Better == higher {
				worse, clear = -change, db.Min > da.Max
			}
			timed := m.Unit != "count" && m.Unit != "B"
			verdict := "ok"
			switch {
			case clear:
			case noise > m.Bound || (timed && drift > calibDrift):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
			}
			if verdict != "ok" {
				notOK = true
			}
			fmt.Fprintf(w, "%-16s %-29s %12.4f [%10.4f, %10.4f] %12.4f [%10.4f, %10.4f] %+7.1f%% %6.1f%% %5.0f%%  %s\n",
				wa.Name, m.Name, da.Median, da.Q1, da.Q3, db.Median, db.Q1, db.Q3,
				100*change, 100*noise, 100*m.Bound, verdict)
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			notOK = true
			fmt.Fprintf(w, "%-16s failed: A %d of %d, B %d of %d\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
	}
	return notOK
}
