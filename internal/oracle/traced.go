package oracle

import (
	"fmt"

	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
)

// TracedSlice is the mechanism-diverse variant slice the provenance
// reconciliation runs over: drained and budgeted disk passes, cached
// spills, 2- and 4-shard parallel runs, batched delivery, and the XJoin
// baseline (pass traces only — XJoin has no punctuation lifecycle).
// Small by design: the full 54-row matrix is the correctness net; this
// slice is the provenance net, and each row exercises a distinct
// span-emission path.
func TracedSlice() []Variant {
	return []Variant{
		{Op: "pjoin", Shards: 1},
		{Op: "pjoin", Chunk: 512, Shards: 1},
		{Op: "pjoin", Chunk: 512, Shards: 1, Cache: true},
		{Op: "pjoin", Shards: 4},
		{Op: "pjoin", Chunk: 512, Shards: 2},
		{Op: "pjoin", Shards: 1, Batch: 256},
		{Op: "xjoin", Chunk: 512, Shards: 1},
	}
}

// RunTraced is Run with a span recorder attached: the operator's
// punctuation-lifecycle, purge-attribution and disk-pass spans are
// captured in memory for reconciliation against its Metrics.
func RunTraced(sc *Scenario, v Variant) (*Outcome, *span.Recorder) {
	rec := &span.Recorder{}
	sink := &lockedCollector{}
	j, err := build(sc, v, sink, false, obs.NewInstrSpans(nil, nil, rec, v.Op))
	if err != nil {
		return &Outcome{Err: err}, rec
	}
	out := drive(j, sc, v)
	out.Tuples, out.Puncts, out.EOS = summarize(sink.snapshot())
	if jj, ok := j.(joinOp); ok {
		out.Metrics = jj.Metrics()
		out.Lat = jj.Latencies()
		out.HasObs = true
	}
	return out, rec
}

// checkSpans reconciles a traced run's span stream against the
// operator's own accounting — the provenance analogue of checkObs. The
// identities are exact, not statistical, because punctuation and pass
// spans are never sampled:
//
//   - Σ punct_purge_mem.N + Σ punct_purge_disk.N == Metrics.Purged:
//     every purged tuple is attributed to exactly one punctuation
//     (purge-buffer parkings ride the M field and are NOT in Purged);
//   - Σ punct_drop_fly.N == Metrics.DroppedOnFly (parked drops again
//     ride M);
//   - join-wide punct_emit spans (Shard < 0: the single instance, or
//     the sharded merger's terminal span) == Metrics.PunctsOut;
//   - every punctuation trace is a closed lifecycle: it has an arrive
//     span and ends in punct_emit or punct_eos_close (no orphans, no
//     dangling lifecycles), across all shards of a trace;
//   - every disk-pass trace has matching start/io/end spans;
//   - no span is traceless (Trace == 0 means the record cannot be
//     attributed to anything — a lost lifecycle).
func checkSpans(v Variant, out *Outcome, rec *span.Recorder) []Divergence {
	var ds []Divergence
	bad := func(f string, args ...any) {
		ds = append(ds, Divergence{Variant: v, Check: "spans", Detail: fmt.Sprintf(f, args...)})
	}
	var purgeMem, purgeDisk, dropFly, emits int64
	for _, s := range rec.Spans() {
		if s.Trace == 0 {
			bad("traceless %s span (id %d)", s.Kind, s.ID)
			continue
		}
		switch s.Kind {
		case span.KindPunctPurgeMem:
			purgeMem += s.N
		case span.KindPunctPurgeDisk:
			purgeDisk += s.N
		case span.KindPunctDropFly:
			dropFly += s.N
		case span.KindPunctEmit:
			if s.Shard < 0 {
				emits++
			}
		}
	}
	m := out.Metrics
	if purgeMem+purgeDisk != m.Purged {
		bad("purge spans account %d+%d tuples, Metrics.Purged=%d", purgeMem, purgeDisk, m.Purged)
	}
	if dropFly != m.DroppedOnFly {
		bad("drop-fly spans account %d tuples, Metrics.DroppedOnFly=%d", dropFly, m.DroppedOnFly)
	}
	if v.Op == "pjoin" && emits != m.PunctsOut {
		bad("join-wide punct_emit spans=%d, Metrics.PunctsOut=%d", emits, m.PunctsOut)
	}
	for trace, ss := range rec.ByTrace() {
		var hasPunct, hasArrive, punctClosed bool
		var passStarts, passEnds, passIOs int
		for _, s := range ss {
			switch {
			case s.Kind.IsPunct():
				hasPunct = true
				if s.Kind == span.KindPunctArrive {
					hasArrive = true
				}
				if s.Kind == span.KindPunctEmit || s.Kind == span.KindPunctEOSClose {
					punctClosed = true
				}
			case s.Kind.IsPass():
				switch s.Kind {
				case span.KindPassStart:
					passStarts++
				case span.KindPassEnd:
					passEnds++
				case span.KindPassIO:
					passIOs++
				}
			}
		}
		if hasPunct && !hasArrive {
			bad("trace %d: punctuation spans without an arrive span (orphan)", trace)
		}
		if hasPunct && !punctClosed {
			bad("trace %d: punctuation lifecycle never closed (no emit/eos_close)", trace)
		}
		if passStarts > 0 || passEnds > 0 {
			if passStarts != 1 || passEnds != 1 || passIOs != 1 {
				bad("trace %d: pass trace has %d start / %d io / %d end spans, want 1/1/1",
					trace, passStarts, passIOs, passEnds)
			}
		}
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
		ds = append(ds, checkSpans(v, out, rec)...)
	}
	return ds
}
