package bench

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestBench5QuickRun checks the chunk-budget sweep's structural
// invariants on the quick horizon: result counts invariant across chunk
// budgets and regimes at every rate (scheduling never changes results),
// every pass counting its steps, the cache observing lookups whenever
// passes ran, and — the headline — the sparse-punctuation latency tail
// of every chunked cell staying below the blocking baseline's stall.
func TestBench5QuickRun(t *testing.T) {
	rep, err := RunBench5(1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rates) != len(Bench5Rates) {
		t.Fatalf("swept %d rates, want %d", len(rep.Rates), len(Bench5Rates))
	}
	for _, r := range rep.Rates {
		if len(r.Scan) != len(Bench5ChunkKBs) || len(r.Indexed) != len(Bench5ChunkKBs) {
			t.Fatalf("punct-mean %d: %d scan / %d indexed cells, want %d",
				r.PunctMean, len(r.Scan), len(r.Indexed), len(Bench5ChunkKBs))
		}
		base := r.Scan[0]
		if base.ChunkKB != 0 {
			t.Fatalf("first cell is chunk %dKiB, want the blocking baseline", base.ChunkKB)
		}
		for i, c := range r.Scan {
			ci := r.Indexed[i]
			t.Logf("pm=%d chunk=%dKiB: scan out=%d max=%.1fms p99=%.1fms passes=%d chunks=%d hit=%.2f | indexed max=%.1fms hit=%.2f",
				r.PunctMean, c.ChunkKB, c.TuplesOut,
				float64(c.ResultLatency.Max)/1e6, float64(c.ResultLatency.P99)/1e6,
				c.DiskPasses, c.DiskChunks, c.CacheHitRatio,
				float64(ci.ResultLatency.Max)/1e6, ci.CacheHitRatio)
			// Chunking and indexing reschedule left-over joins; the results
			// and propagated punctuations must not move.
			if c.TuplesOut != base.TuplesOut || ci.TuplesOut != base.TuplesOut {
				t.Errorf("punct-mean %d chunk %dKiB: TuplesOut scan=%d indexed=%d, want %d",
					r.PunctMean, c.ChunkKB, c.TuplesOut, ci.TuplesOut, base.TuplesOut)
			}
			if c.PunctsOut != base.PunctsOut || ci.PunctsOut != base.PunctsOut {
				t.Errorf("punct-mean %d chunk %dKiB: PunctsOut scan=%d indexed=%d, want %d",
					r.PunctMean, c.ChunkKB, c.PunctsOut, ci.PunctsOut, base.PunctsOut)
			}
			checkDist(t, "result_latency", c.ResultLatency)
			if c.DiskPasses > 0 && c.DiskChunks < c.DiskPasses {
				t.Errorf("punct-mean %d chunk %dKiB: %d chunks over %d passes",
					r.PunctMean, c.ChunkKB, c.DiskChunks, c.DiskPasses)
			}
			// Any run with disk passes went through the block cache.
			if c.DiskPasses > 0 && c.CacheHits+c.CacheMisses == 0 {
				t.Errorf("punct-mean %d chunk %dKiB: passes ran but the cache saw no lookups",
					r.PunctMean, c.ChunkKB)
			}
		}
	}
	// The headline claim on the sparse rate: the blocking baseline
	// stalls (its max result latency is set by whole-pass duration), and
	// every chunked budget keeps the tail strictly below it.
	sparse := rep.Rates[len(rep.Rates)-1]
	blockMax := sparse.Scan[0].ResultLatency.Max
	for _, c := range sparse.Scan[1:] {
		if c.ResultLatency.Max >= blockMax {
			t.Errorf("punct-mean %d chunk %dKiB: max latency %dns not below blocking %dns",
				sparse.PunctMean, c.ChunkKB, c.ResultLatency.Max, blockMax)
		}
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Bench5
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(back.Rates) != len(rep.Rates) {
		t.Errorf("round-trip lost rates: %d vs %d", len(back.Rates), len(rep.Rates))
	}
}
