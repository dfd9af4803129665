package oracle

import (
	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/op"
	"pjoin/internal/oracle/spancheck"
)

// TracedSlice is the mechanism-diverse variant slice the provenance
// reconciliation runs over: drained and budgeted disk passes, batched
// delivery, and the XJoin baseline (pass traces only — XJoin has no
// punctuation lifecycle). Small by design: the full 30-row
// matrix is the correctness net; this slice is the provenance net, and
// each row exercises a distinct span-emission path.
func TracedSlice() []Variant {
	return []Variant{
		{Op: "pjoin"},
		{Op: "pjoin", Chunk: 512},
		{Op: "pjoin", Batch: 256},
		{Op: "xjoin", Chunk: 512},
	}
}

// RunTraced is Run with a span recorder attached: the operator's
// punctuation-lifecycle, purge-attribution and disk-pass spans are
// captured in memory for reconciliation against its Metrics.
func RunTraced(sc *Scenario, v Variant) (*Outcome, *span.Recorder) {
	rec := &span.Recorder{}
	sink := &op.Collector{}
	j, err := build(sc, v, sink, false, obs.NewInstr(rec, nil, v.Op))
	if err != nil {
		return &Outcome{Err: err}, rec
	}
	out := drive(j, sc, v)
	out.summarize(sink.Items)
	out.Metrics, out.Lat, out.HasObs = j.Metrics(), j.Latencies(), true
	return out, rec
}

// checkSpans reconciles a traced run's span stream against the
// operator's own accounting through the one reconciliation table
// (spancheck.Check: purge, relocation, pass and punctuation counts and
// sums, closed lifecycles, no traceless span) — the provenance analogue
// of checkObs.
func checkSpans(v Variant, out *Outcome, rec *span.Recorder) []Divergence {
	var ds []Divergence
	for _, d := range spancheck.Check(rec.Spans(), out.Metrics, spancheck.Opts{}) {
		ds = append(ds, Divergence{Variant: v, Check: "spans", Detail: d})
	}
	return ds
}

// CheckSeedTraced runs the traced slice over one seed's scenario and
// reconciles every run's span stream. The traced counterpart of
// CheckSeed, used by the CI traced-oracle job.
func CheckSeedTraced(seed uint64) []Divergence {
	sc := FromSeed(seed)
	if err := sc.Validate(); err != nil {
		return []Divergence{{Check: "generator", Detail: err.Error()}}
	}
	var ds []Divergence
	for _, v := range TracedSlice() {
		out, rec := RunTraced(sc, v)
		if out.Err != nil {
			ds = append(ds, Divergence{Variant: v, Check: "error", Detail: out.Err.Error()})
			continue
		}
		if out.Order != "" {
			ds = append(ds, Divergence{Variant: v, Check: "order", Detail: out.Order})
		}
		if d := checkLicensed(sc, out.Puncts); d != "" {
			ds = append(ds, Divergence{Variant: v, Check: "licensed", Detail: d})
		}
		ds = append(ds, checkSpans(v, out, rec)...)
	}
	return ds
}
