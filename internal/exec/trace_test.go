package exec

import (
	"context"
	"io"
	"testing"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
)

// TestTracingIsPureObservation runs one two-source → PJoin → sink
// pipeline at batch 256 with no tracer attached, sampled 1-in-64 and with
// every tuple traced (spans JSONL-encoded into a discarded stream), and
// holds that attaching a tracer changes nothing the join computes and
// that the span accounting reconciles with itself: the sampler's admitted
// + dropped cover every input tuple, the 1-in-64 admission count is
// exact, punctuation spans are never sampled, and a detached run emits no
// span at all. What tracing costs in tuples/s is the benchmark's
// benchmark.trace_overhead_pct row, not an assertion here.
func TestTracingIsPureObservation(t *testing.T) {
	a, b := splitSynthetic(t, 1, 4000, 50)

	type cell struct {
		in, results, punctsOut int64
		admitted, dropped      int64
		kinds                  []int64 // per span.Kind; nil detached
	}
	run := func(sampleEvery int) cell {
		p := NewPipeline()
		p.BatchSize = 256
		var spans *span.Tee
		if sampleEvery > 0 {
			spans = span.NewTee(span.NewJSONL(io.Discard))
			p.Obs = obs.NewInstr(spans, nil, "exec")
			p.SpanSampler = span.NewSampler(sampleEvery)
		}
		srcA, srcB, out := p.Edge(), p.Edge(), p.Edge()
		cfg := core.Config{
			SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
			AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
		}
		cfg.Thresholds.Purge = 1
		cfg.Thresholds.PropagateCount = 1
		if spans != nil {
			cfg.Instr = obs.NewInstr(spans, nil, "pjoin")
		}
		pj, err := core.New(cfg, out)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Spawn(pj, srcA, srcB); err != nil {
			t.Fatal(err)
		}
		p.Sink(out)
		p.SourceItems(srcA, a, false)
		p.SourceItems(srcB, b, false)
		if err := p.Run(context.Background()); err != nil {
			t.Fatalf("sample 1-in-%d: %v", sampleEvery, err)
		}
		m := pj.Metrics()
		return cell{
			in: m.TuplesIn[0] + m.TuplesIn[1], results: m.TuplesOut, punctsOut: m.PunctsOut,
			admitted: p.SpanSampler.Sampled(), dropped: p.SpanSampler.Dropped(),
			kinds: spans.Counts(),
		}
	}
	detached, sampled, full := run(0), run(64), run(1)

	if detached.in == 0 || detached.results == 0 || detached.punctsOut == 0 {
		t.Fatalf("detached: %d tuples in, %d results, %d punctuations out: the workload exercises nothing",
			detached.in, detached.results, detached.punctsOut)
	}
	if detached.kinds != nil || detached.admitted+detached.dropped != 0 {
		t.Errorf("detached: span counts %v, %d admitted, %d dropped; want none", detached.kinds, detached.admitted, detached.dropped)
	}
	for name, c := range map[string]cell{"sampled": sampled, "full": full} {
		if c.in != detached.in || c.results != detached.results || c.punctsOut != detached.punctsOut {
			t.Errorf("%s: in/results/puncts out = %d/%d/%d, detached %d/%d/%d: tracing changed the computation",
				name, c.in, c.results, c.punctsOut, detached.in, detached.results, detached.punctsOut)
		}
		if c.admitted+c.dropped != c.in {
			t.Errorf("%s: admitted %d + dropped %d != tuples in %d", name, c.admitted, c.dropped, c.in)
		}
	}
	if want := (sampled.in + 63) / 64; sampled.admitted != want {
		t.Errorf("sampled: admitted %d of %d tuples, want %d", sampled.admitted, sampled.in, want)
	}
	if full.admitted != full.in {
		t.Errorf("full: admitted %d of %d tuples, want all", full.admitted, full.in)
	}
	// Punctuation spans are never sampled. The kinds the workload fixes
	// are compared: how many purge and drop-on-the-fly spans a punctuation
	// gets depends on how the two live sources interleave.
	for _, k := range []span.Kind{span.KindPunctArrive, span.KindPunctEmit} {
		if s, f := sampled.kinds[k], full.kinds[k]; s != f || s == 0 {
			t.Errorf("%s spans: sampled %d, full %d; want equal and non-zero", k, s, f)
		}
	}
	_, _, sampledTuple, _ := span.FamilyCounts(sampled.kinds)
	_, _, fullTuple, _ := span.FamilyCounts(full.kinds)
	if fullTuple < 4*full.in || sampledTuple >= fullTuple {
		t.Errorf("tuple spans: sampled %d, full %d for %d tuples; want full >= 4 per tuple (ingest, cut, deliver, probe) and sampled below it",
			sampledTuple, fullTuple, full.in)
	}
}
