package bench

// This file implements the latency summary behind `make bench`
// (BENCH_4.json): a sweep over punctuation inter-arrival rates,
// recording result-latency and punctuation-propagation-delay
// distributions (p50/p95/p99/max) from the operators' histograms
// (internal/obs/hist) under both price lists (RunConfig.Indexed: scan =
// the paper's table walk, indexed = what the engine examines). It is the
// quantitative half of the paper's responsiveness story. Punctuation delay: a
// punctuation can only propagate once the partner stream has
// punctuated the same subset, so the later punct of each matched pair
// is instant (median 0) and the earlier one's wait is the cross-stream
// punctuation skew (the tail). Result latency: dense punctuation keeps
// the state purged and every result is an instant memory probe; sparse
// punctuation lets the state outgrow the memory threshold, and results
// ride spill + disk passes — the latency tail IS the cost of
// under-punctuating. The two sides punctuate independently (not
// aligned — aligned pairs arrive back-to-back and the wait collapses
// to the pair gap).

import (
	"encoding/json"
	"fmt"
	"io"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/obs/hist"
	"pjoin/internal/stream"
)

// Bench4Dist summarises one latency histogram (all values virtual-time
// nanoseconds except Purge's, which are wall-clock).
type Bench4Dist struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean_ns"`
	P50   int64   `json:"p50_ns"`
	P95   int64   `json:"p95_ns"`
	P99   int64   `json:"p99_ns"`
	Max   int64   `json:"max_ns"`
}

func bench4Dist(s hist.Snapshot) Bench4Dist {
	return Bench4Dist{
		Count: s.Count,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
		Max:   s.Max,
	}
}

// Bench4Regime is one price list's measurement at one punctuation
// rate.
type Bench4Regime struct {
	TuplesOut     int64      `json:"tuples_out"`
	PunctsOut     int64      `json:"puncts_out"`
	PurgeRuns     int64      `json:"purge_runs"`
	ResultLatency Bench4Dist `json:"result_latency"`
	PunctDelay    Bench4Dist `json:"punct_delay"`
}

// Bench4Rate is one punctuation inter-arrival setting measured under
// both price lists.
type Bench4Rate struct {
	// PunctMean is the mean number of tuples between punctuations on
	// each input (aligned across the two sides).
	PunctMean int          `json:"punct_mean"`
	Scan      Bench4Regime `json:"scan"`
	Indexed   Bench4Regime `json:"indexed"`
}

// Bench4 is the full latency report.
type Bench4 struct {
	Note  string       `json:"note"`
	Seed  uint64       `json:"seed"`
	Rates []Bench4Rate `json:"rates"`
}

func bench4Regime(rc RunConfig, punctMean int, indexed bool) (Bench4Regime, error) {
	horizon := rc.horizon(defShort)
	arrs, err := gen.Synthetic(gen.Config{
		Seed:     rc.seed(),
		Duration: horizon,
		A:        gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: float64(punctMean)},
		B:        gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: float64(punctMean)},
	})
	if err != nil {
		return Bench4Regime{}, err
	}
	rc.Indexed = indexed
	pj, err := pjoinFor(rc, "pjoin", 1, func(c *core.Config) {
		c.DisablePropagation = false
		c.Thresholds.PropagateCount = 1 // propagate as soon as the state allows
		c.Thresholds.MemoryBytes = 32 << 10
	})
	if err != nil {
		return Bench4Regime{}, err
	}
	res, err := rc.simulate(pj, arrs, horizon)
	if err != nil {
		return Bench4Regime{}, err
	}
	lat := pj.Latencies()
	return Bench4Regime{
		TuplesOut:     res.Final.TuplesOut,
		PunctsOut:     res.Final.PunctsOut,
		PurgeRuns:     res.Final.PurgeRuns,
		ResultLatency: bench4Dist(lat.Result),
		PunctDelay:    bench4Dist(lat.PunctDelay),
	}, nil
}

// Bench4Rates is the default punctuation inter-arrival sweep (mean
// tuples between punctuations per side).
var Bench4Rates = []int{10, 40, 160}

// RunBench4 runs the latency sweep at the given workload seed. progress
// (optional) receives one line per setting.
func RunBench4(seed uint64, quick bool, progress io.Writer) (*Bench4, error) {
	if progress == nil {
		progress = io.Discard
	}
	out := &Bench4{
		Note: "independently punctuated symmetric workload, eager purge, PropagateCount=1, " +
			"32KiB memory threshold (some results ride disk passes); " +
			"result latency = emit time minus result timestamp (0 for memory probes), " +
			"punct delay = propagation time minus arrival; virtual-time ns. " +
			"scan = pre-index physics, indexed = key-grouped state index — the " +
			"distributions must agree in count (same results, same punctuations).",
		Seed: seed,
	}
	rc := RunConfig{Seed: seed, Quick: quick}
	for _, pm := range Bench4Rates {
		fmt.Fprintf(progress, "punct-mean %d: scan + indexed runs...\n", pm)
		scan, err := bench4Regime(rc, pm, false)
		if err != nil {
			return nil, fmt.Errorf("bench4: punct-mean %d (scan): %w", pm, err)
		}
		indexed, err := bench4Regime(rc, pm, true)
		if err != nil {
			return nil, fmt.Errorf("bench4: punct-mean %d (indexed): %w", pm, err)
		}
		out.Rates = append(out.Rates, Bench4Rate{PunctMean: pm, Scan: scan, Indexed: indexed})
	}
	return out, nil
}

// WriteJSON renders the report as indented JSON.
func (b *Bench4) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
