package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"pjoin/internal/stream"
)

func checkDist(t *testing.T, name string, d Bench4Dist) {
	t.Helper()
	if d.Count == 0 {
		t.Fatalf("%s: empty distribution", name)
	}
	if !(d.P50 <= d.P95 && d.P95 <= d.P99 && d.P99 <= d.Max) {
		t.Errorf("%s: quantiles not monotone: p50=%d p95=%d p99=%d max=%d",
			name, d.P50, d.P95, d.P99, d.Max)
	}
	if d.Mean < 0 || float64(d.Max) < d.Mean {
		t.Errorf("%s: mean %f outside [0, max=%d]", name, d.Mean, d.Max)
	}
}

func TestBench4QuickRun(t *testing.T) {
	rep, err := RunBench4(1, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rates) < 3 {
		t.Fatalf("swept %d punctuation rates, want >= 3", len(rep.Rates))
	}
	for _, r := range rep.Rates {
		// The price list changes what the work costs, never results or
		// punctuations: the distributions must agree in count.
		if r.Scan.TuplesOut != r.Indexed.TuplesOut {
			t.Errorf("punct-mean %d: TuplesOut scan %d != indexed %d",
				r.PunctMean, r.Scan.TuplesOut, r.Indexed.TuplesOut)
		}
		if r.Scan.PunctsOut != r.Indexed.PunctsOut {
			t.Errorf("punct-mean %d: PunctsOut scan %d != indexed %d",
				r.PunctMean, r.Scan.PunctsOut, r.Indexed.PunctsOut)
		}
		for _, reg := range []struct {
			name string
			r    Bench4Regime
		}{{"scan", r.Scan}, {"indexed", r.Indexed}} {
			checkDist(t, reg.name+" result_latency", reg.r.ResultLatency)
			checkDist(t, reg.name+" punct_delay", reg.r.PunctDelay)
			if reg.r.ResultLatency.Count != reg.r.TuplesOut {
				t.Errorf("punct-mean %d %s: latency samples %d != TuplesOut %d",
					r.PunctMean, reg.name, reg.r.ResultLatency.Count, reg.r.TuplesOut)
			}
			if reg.r.PunctDelay.Count != reg.r.PunctsOut {
				t.Errorf("punct-mean %d %s: delay samples %d != PunctsOut %d",
					r.PunctMean, reg.name, reg.r.PunctDelay.Count, reg.r.PunctsOut)
			}
		}
	}
	// The sweep's story: sparser punctuation means fewer propagations,
	// and — because the state outgrows memory between purges — results
	// that ride disk passes instead of memory probes. Assert both
	// orderings between the densest and sparsest settings.
	first, last := rep.Rates[0], rep.Rates[len(rep.Rates)-1]
	if first.PunctMean >= last.PunctMean {
		t.Fatalf("sweep not ordered by punct rate: %d .. %d", first.PunctMean, last.PunctMean)
	}
	if first.Scan.PunctsOut <= last.Scan.PunctsOut {
		t.Errorf("punct-mean %d propagated %d, punct-mean %d propagated %d: want fewer at the sparser rate",
			first.PunctMean, first.Scan.PunctsOut, last.PunctMean, last.Scan.PunctsOut)
	}
	if first.Scan.ResultLatency.Mean >= last.Scan.ResultLatency.Mean {
		t.Errorf("mean result latency did not grow with punctuation sparsity: %.0fns at punct-mean %d vs %.0fns at %d",
			first.Scan.ResultLatency.Mean, first.PunctMean, last.Scan.ResultLatency.Mean, last.PunctMean)
	}
	// The delay tail is the cross-stream punctuation skew: the earlier
	// punct of each matched pair genuinely waits for its partner.
	for _, r := range rep.Rates {
		if r.Scan.PunctDelay.Max < int64(stream.Millisecond) {
			t.Errorf("punct-mean %d: max delay %dns — no punctuation ever waited for its partner",
				r.PunctMean, r.Scan.PunctDelay.Max)
		}
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Bench4
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(back.Rates) != len(rep.Rates) {
		t.Errorf("round-trip lost rates: %d vs %d", len(back.Rates), len(rep.Rates))
	}
}
