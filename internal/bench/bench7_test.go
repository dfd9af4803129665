package bench

import (
	"testing"

	"pjoin/internal/obs/span"
)

// TestBench7CellsReconcile runs the tracing-overhead sweep's three
// modes (detached, sampled 1-in-64, full) in quick mode and checks the
// invariants the overhead figures rest on: tracing must be pure
// observation — identical tuples in/out and punctuations propagated in
// every mode — and the span accounting must reconcile with itself:
// the sampler's admitted + dropped counters cover every input tuple,
// the 1-in-64 admission count is exact, punctuation spans are never
// sampled (identical across traced modes), and full mode emits at
// least ingest+cut+deliver+probe spans per input tuple. Wall-clock
// ratios are deliberately NOT asserted here — the ≤10% overhead bar is
// a best-of-3 benchmark figure (BENCH_7.json), not a CI invariant.
func TestBench7CellsReconcile(t *testing.T) {
	rc := RunConfig{Seed: 1, Quick: true}
	var cells []Bench7Cell
	for _, m := range Bench7Modes {
		cell, err := bench7Once(rc, 256, m.SampleEvery)
		if err != nil {
			t.Fatalf("%s: %v", m.Mode, err)
		}
		cell.Mode = m.Mode
		cells = append(cells, cell)
	}
	detached := cells[0]
	if detached.Spans != 0 || detached.SampledIn != 0 || detached.DroppedIn != 0 {
		t.Errorf("detached: spans=%d sampled=%d dropped=%d, want all 0",
			detached.Spans, detached.SampledIn, detached.DroppedIn)
	}
	for _, c := range cells {
		if c.TuplesIn != detached.TuplesIn || c.TuplesOut != detached.TuplesOut ||
			c.PunctsOut != detached.PunctsOut {
			t.Errorf("%s: in/out/puncts = %d/%d/%d, detached %d/%d/%d — tracing changed the computation",
				c.Mode, c.TuplesIn, c.TuplesOut, c.PunctsOut,
				detached.TuplesIn, detached.TuplesOut, detached.PunctsOut)
		}
	}
	sampled, full := cells[1], cells[2]
	for _, c := range []Bench7Cell{sampled, full} {
		if c.SampledIn+c.DroppedIn != c.TuplesIn {
			t.Errorf("%s: sampled %d + dropped %d != tuples in %d",
				c.Mode, c.SampledIn, c.DroppedIn, c.TuplesIn)
		}
		if c.PunctSpans == 0 || c.TupleSpans == 0 {
			t.Errorf("%s: punct_spans=%d tuple_spans=%d, want both > 0",
				c.Mode, c.PunctSpans, c.TupleSpans)
		}
	}
	if want := (sampled.TuplesIn + 63) / 64; sampled.SampledIn != want {
		t.Errorf("sampled_64: admitted %d of %d tuples, want %d",
			sampled.SampledIn, sampled.TuplesIn, want)
	}
	if full.SampledIn != full.TuplesIn || full.DroppedIn != 0 {
		t.Errorf("full: admitted %d dropped %d of %d tuples, want all admitted",
			full.SampledIn, full.DroppedIn, full.TuplesIn)
	}
	// Punctuation spans must not be sampled. Aggregate punct-span counts
	// can differ by a few across runs (drop-on-fly vs insert-then-purge
	// depends on source interleaving), so compare the kinds that are
	// fixed by the workload: one arrive span per punctuation entering
	// the join, one emit span per punctuation propagated.
	for _, k := range []span.Kind{span.KindPunctArrive, span.KindPunctEmit} {
		if s, f := sampled.kinds[k], full.kinds[k]; s != f || s == 0 {
			t.Errorf("%s spans: sampled_64 %d, full %d — want equal and non-zero (punct spans are never sampled)",
				k, s, f)
		}
	}
	if min := 4 * full.TuplesIn; full.TupleSpans < min {
		t.Errorf("full: %d tuple spans for %d tuples, want >= %d (ingest+cut+deliver+probe each)",
			full.TupleSpans, full.TuplesIn, min)
	}
	if sampled.TupleSpans >= full.TupleSpans {
		t.Errorf("sampled_64 tuple spans (%d) not below full (%d)",
			sampled.TupleSpans, full.TupleSpans)
	}
}
