package bench

import (
	"fmt"
	"sync"
	"testing"

	"pjoin/internal/metrics"
	"pjoin/internal/stream"
)

// extLatencyQuick caches the quick-horizon ext-latency report, which
// both latency tests read.
var extLatencyQuick struct {
	once sync.Once
	rep  *Report
	err  error
}

// latencyAt runs ext-latency once on the quick horizon and returns a
// lookup of field's value at punct-mean pm and chunk-budget index i,
// after checking the report has one series per (rate, field) with one
// point per budget.
func latencyAt(t *testing.T) func(pm int, field string, i int) float64 {
	t.Helper()
	extLatencyQuick.once.Do(func() {
		e, err := Get("ext-latency")
		if err != nil {
			extLatencyQuick.err = err
			return
		}
		extLatencyQuick.rep, extLatencyQuick.err = e.Run(RunConfig{Quick: true})
	})
	if extLatencyQuick.err != nil {
		t.Fatal(extLatencyQuick.err)
	}
	byName := map[string]metrics.Series{}
	for _, s := range extLatencyQuick.rep.Series {
		byName[s.Name] = s
	}
	if len(byName) != len(latencyPunctMeans)*len(latencyFields) {
		t.Fatalf("%d series, want %d", len(byName), len(latencyPunctMeans)*len(latencyFields))
	}
	return func(pm int, field string, i int) float64 {
		t.Helper()
		s, ok := byName[fmt.Sprintf("pm%d/%s", pm, field)]
		if !ok || s.Len() != len(latencyChunkKBs) {
			t.Fatalf("pm%d/%s: %d points, want %d", pm, field, s.Len(), len(latencyChunkKBs))
		}
		if kb := s.Points[i].T; kb != float64(latencyChunkKBs[i]) {
			t.Fatalf("pm%d/%s point %d is chunk %g KiB, want %d", pm, field, i, kb, latencyChunkKBs[i])
		}
		return s.Points[i].V
	}
}

// TestBench4QuickRun checks ext-latency along the punctuation-rate axis:
// monotone quantiles, one latency sample per result and one delay sample
// per propagated punctuation in every cell, some punctuation waiting for
// its partner at every rate, and sparser punctuation propagating less
// and waiting longer.
func TestBench4QuickRun(t *testing.T) {
	at := latencyAt(t)
	for _, pm := range latencyPunctMeans {
		for i, kb := range latencyChunkKBs {
			for _, h := range []string{"result_latency", "punct_delay"} {
				q := func(name string) float64 { return at(pm, h+"."+name, i) }
				if !(q("p50_ns") <= q("p95_ns") && q("p95_ns") <= q("p99_ns") && q("p99_ns") <= q("max_ns")) {
					t.Errorf("pm%d chunk %d KiB %s: quantiles not monotone: p50=%g p95=%g p99=%g max=%g",
						pm, kb, h, q("p50_ns"), q("p95_ns"), q("p99_ns"), q("max_ns"))
				}
				if q("mean_ns") < 0 || q("max_ns") < q("mean_ns") {
					t.Errorf("pm%d chunk %d KiB %s: mean %g outside [0, max=%g]", pm, kb, h, q("mean_ns"), q("max_ns"))
				}
			}
			out, puncts := at(pm, "tuples_out", i), at(pm, "puncts_out", i)
			if out == 0 || puncts == 0 {
				t.Fatalf("pm%d chunk %d KiB: %g results, %g punctuations out", pm, kb, out, puncts)
			}
			if n := at(pm, "result_latency.count", i); n != out {
				t.Errorf("pm%d chunk %d KiB: %g latency samples, %g results", pm, kb, n, out)
			}
			if n := at(pm, "punct_delay.count", i); n != puncts {
				t.Errorf("pm%d chunk %d KiB: %g delay samples, %g punctuations out", pm, kb, n, puncts)
			}
		}
		// The delay tail is the cross-stream punctuation skew: the earlier
		// punctuation of each matched pair waits for its partner.
		if max := at(pm, "punct_delay.max_ns", 0); max < float64(stream.Millisecond) {
			t.Errorf("pm%d: max delay %gns; no punctuation ever waited for its partner", pm, max)
		}
	}
	// Sparser punctuation: fewer propagations, and results that ride disk
	// passes instead of memory probes.
	dense, sparse := latencyPunctMeans[0], latencyPunctMeans[len(latencyPunctMeans)-1]
	if at(dense, "puncts_out", 0) <= at(sparse, "puncts_out", 0) {
		t.Errorf("pm%d propagated %g, pm%d %g: want fewer at the sparser rate",
			dense, at(dense, "puncts_out", 0), sparse, at(sparse, "puncts_out", 0))
	}
	if at(dense, "result_latency.mean_ns", 0) >= at(sparse, "result_latency.mean_ns", 0) {
		t.Errorf("mean result latency %gns at pm%d, %gns at pm%d: want it to grow with sparsity",
			at(dense, "result_latency.mean_ns", 0), dense, at(sparse, "result_latency.mean_ns", 0), sparse)
	}
}

// TestBench5QuickRun checks ext-latency along the chunk-budget axis:
// results and punctuations invariant across the budgets of a rate, at
// least one chunk per pass, the disk read whenever passes ran,
// and — the headline — every chunked cell's sparse-punctuation tail
// below the blocking baseline's.
func TestBench5QuickRun(t *testing.T) {
	at := latencyAt(t)
	for _, pm := range latencyPunctMeans {
		for i, kb := range latencyChunkKBs {
			out, puncts := at(pm, "tuples_out", i), at(pm, "puncts_out", i)
			// Chunking reschedules left-over joins; results and propagated
			// punctuations must not move.
			if out != at(pm, "tuples_out", 0) || puncts != at(pm, "puncts_out", 0) {
				t.Errorf("pm%d chunk %d KiB: %g results, %g punctuations; blocking cell %g, %g",
					pm, kb, out, puncts, at(pm, "tuples_out", 0), at(pm, "puncts_out", 0))
			}
			passes := at(pm, "disk_passes", i)
			if passes > 0 && at(pm, "disk_chunks", i) < passes {
				t.Errorf("pm%d chunk %d KiB: %g chunks over %g passes", pm, kb, at(pm, "disk_chunks", i), passes)
			}
			if passes > 0 && at(pm, "spill_read_ops", i) == 0 {
				t.Errorf("pm%d chunk %d KiB: passes ran but the spill stores counted no reads", pm, kb)
			}
		}
	}
	sparse := latencyPunctMeans[len(latencyPunctMeans)-1]
	blockMax := at(sparse, "result_latency.max_ns", 0)
	for i, kb := range latencyChunkKBs[1:] {
		if max := at(sparse, "result_latency.max_ns", i+1); max >= blockMax {
			t.Errorf("pm%d chunk %d KiB: max latency %gns not below blocking %gns", sparse, kb, max, blockMax)
		}
	}
}
