package bench

// ext-latency is the responsiveness side of the evaluation, beyond the
// paper's charts: result latency and punctuation-propagation delay
// (internal/obs/hist) across punctuation rates and disk-pass chunk
// budgets.
//
// Punctuation delay: a punctuation can only propagate once the partner
// stream has punctuated the same subset, so the later punctuation of each
// matched pair is instant (median 0) and the earlier one's wait is the
// cross-stream punctuation skew (the tail). The two sides punctuate
// independently; aligned pairs would arrive back to back and collapse the
// wait to the pair gap.
//
// Result latency: dense punctuation keeps the state purged and every
// result is an instant memory probe; sparse punctuation lets the state
// outgrow the 32 KiB memory threshold, and results ride disk passes. With
// every pass drained inside the call that schedules it (chunk budget 0)
// the operator stalls for a whole pass while arrivals queue; a chunk
// budget (core.Config.DiskChunkBytes) bounds each step, so the tail is
// set by pass progress rate instead of pass duration. Each side spills
// to a plain simulated disk (store.MemSpill) that counts every read a
// pass makes: spill_read_ops and spill_bytes_read are the stores' own
// counters. Chunking reschedules left-over joins and never changes them:
// results and propagated punctuations agree across the budgets of one
// rate.

import (
	"fmt"

	"pjoin/internal/core"
	"pjoin/internal/obs/hist"
	"pjoin/internal/store"
)

func init() {
	register(Experiment{ID: "ext-latency", Title: "Extension: result latency and punctuation delay vs punct rate and disk-pass chunk budget", Run: runExtLatency})
}

var (
	// latencyPunctMeans is the punctuation sweep (mean tuples between
	// punctuations per side): memory keeps up at 10 and mostly at 40; at
	// 160 the state spills and blocking passes stall.
	latencyPunctMeans = []int{10, 40, 160}
	// latencyChunkKBs is the disk-pass chunk-budget sweep in KiB per step;
	// 0 drains every pass (the blocking baseline).
	latencyChunkKBs = []int{0, 16, 64, 256}
)

// latencyFields names what ext-latency records per cell, in CSV order.
// Latencies are virtual-time nanoseconds.
var latencyFields = []string{
	"tuples_out", "puncts_out", "purge_runs", "disk_passes", "disk_chunks", "spilled_tuples",
	"result_latency.count", "result_latency.mean_ns", "result_latency.p50_ns",
	"result_latency.p95_ns", "result_latency.p99_ns", "result_latency.max_ns",
	"punct_delay.count", "punct_delay.mean_ns", "punct_delay.p50_ns",
	"punct_delay.p95_ns", "punct_delay.p99_ns", "punct_delay.max_ns",
	"spill_read_ops", "spill_bytes_read",
}

// latencyCell runs one (punctuation rate, chunk budget) cell: eager
// purge, propagation as soon as the state allows, and returns the
// latencyFields values in order.
func latencyCell(rc RunConfig, punctMean, chunkKB int) ([]float64, error) {
	arrs, horizon, err := symmetricWorkload(rc, defShort, float64(punctMean))
	if err != nil {
		return nil, err
	}
	spillA, spillB := store.NewMemSpill(), store.NewMemSpill()
	pj, err := pjoinFor(rc, fmt.Sprintf("pjoin-pm%d-c%dk", punctMean, chunkKB), 1, func(c *core.Config) {
		c.DisablePropagation = false
		c.Thresholds.PropagateCount = 1
		c.Thresholds.MemoryBytes = 32 << 10
		c.DiskChunkBytes = chunkKB << 10
		c.SpillA, c.SpillB = spillA, spillB
	})
	if err != nil {
		return nil, err
	}
	res, err := rc.simulate(pj, arrs, horizon, spillA, spillB)
	if err != nil {
		return nil, err
	}
	dist := func(s hist.Snapshot) []float64 {
		return []float64{float64(s.Count), s.Mean(),
			float64(s.Quantile(0.50)), float64(s.Quantile(0.95)), float64(s.Quantile(0.99)), float64(s.Max)}
	}
	lat := pj.Latencies()
	f := res.Final
	v := []float64{float64(f.TuplesOut), float64(f.PunctsOut), float64(f.PurgeRuns),
		float64(f.DiskPasses), float64(f.DiskChunks), float64(f.SpilledTuples)}
	v = append(v, dist(lat.Result)...)
	v = append(v, dist(lat.PunctDelay)...)
	return append(v, float64(res.IO.ReadOps), float64(res.IO.BytesRead)), nil
}

// latencyField returns the position of name in latencyFields.
func latencyField(name string) int {
	for i, f := range latencyFields {
		if f == name {
			return i
		}
	}
	panic("bench: unknown ext-latency field " + name)
}

// runExtLatency sweeps latencyPunctMeans x latencyChunkKBs. Each series
// is one (rate, field), named "pm<rate>/<field>", with one point per
// chunk budget (x = KiB). Each cell sets its own chunk budget and spill
// stores.
func runExtLatency(rc RunConfig) (*Report, error) {
	report := &Report{
		ID:    "ext-latency",
		Title: "Result latency and punctuation delay vs punct inter-arrival and disk-pass chunk budget",
		Paper: "beyond the paper: sparse punctuation spills the state and a blocking disk pass stalls results; chunked passes bound the stall",
		Rows: [][]string{{"punct", "chunk KiB", "results", "puncts out", "passes", "chunks",
			"lat mean ms", "lat p99 ms", "lat max ms", "delay max ms"}},
	}
	for _, pm := range latencyPunctMeans {
		series := make([]Series, len(latencyFields))
		for i, name := range latencyFields {
			series[i].Name = fmt.Sprintf("pm%d/%s", pm, name)
		}
		var blockMax float64
		for _, kb := range latencyChunkKBs {
			v, err := latencyCell(rc, pm, kb)
			if err != nil {
				return nil, fmt.Errorf("punct-mean %d chunk %d KiB: %w", pm, kb, err)
			}
			for i := range series {
				series[i].Add(float64(kb), v[i])
			}
			count := func(name string) string { return fmt.Sprintf("%.0f", v[latencyField(name)]) }
			ms := func(name string) string { return f1(v[latencyField(name)] / 1e6) }
			report.Rows = append(report.Rows, []string{
				fmt.Sprint(pm), fmt.Sprint(kb),
				count("tuples_out"), count("puncts_out"), count("disk_passes"), count("disk_chunks"),
				ms("result_latency.mean_ns"), ms("result_latency.p99_ns"), ms("result_latency.max_ns"),
				ms("punct_delay.max_ns"),
			})
			max := v[latencyField("result_latency.max_ns")]
			if kb == 0 {
				blockMax = max
			} else if blockMax > 0 {
				report.Notes = append(report.Notes, fmt.Sprintf(
					"punct-mean %d, chunk %d KiB: max result latency %.1f ms, %+.1f%% vs blocking %.1f ms",
					pm, kb, max/1e6, (max/blockMax-1)*100, blockMax/1e6))
			}
		}
		report.Series = append(report.Series, series...)
	}
	return report, nil
}
