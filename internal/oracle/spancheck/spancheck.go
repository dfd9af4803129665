// Package spancheck is the one reconciliation of a trace against the
// operator's own accounting: the identities between span kinds and
// joinbase.Metrics counters the span package's kind table states. The
// traced-oracle soak runs it over seeded scenarios; core (PJoin and
// XJoin) and parallel run it over Stream, one fixed schedule that
// reaches relocation, a disk pass, purge and propagation. It imports
// none of them, so all three can.
package spancheck

import (
	"fmt"

	"pjoin/internal/gen"
	"pjoin/internal/joinbase"
	"pjoin/internal/obs/span"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// Opts says what kind of run produced the spans.
type Opts struct {
	// Shards > 1: a sharded join. Its shards' spans carry their shard
	// index, router and align spans carry -1, and Metrics().PunctsIn is
	// already normalised to the stream count.
	Shards int
	// Admitted: every input tuple carried a trace, so the tuple-family
	// identities are exact too.
	Admitted bool
}

// Check returns one line per identity the spans break. The identities
// are exact, not statistical: punctuation, pass and point spans are
// never sampled. Only a run that ended without error reconciles.
func Check(spans []span.Span, m joinbase.Metrics, o Opts) []string {
	var bad []string
	fail := func(f string, args ...any) { bad = append(bad, fmt.Sprintf(f, args...)) }

	count := make([]int64, span.NumKinds())
	sumN, sumM := make([]int64, span.NumKinds()), make([]int64, span.NumKinds())
	var punctsIn [2]int64
	var emits int64
	byTrace := map[uint64][]span.Span{}
	for _, s := range spans {
		count[s.Kind]++
		sumN[s.Kind] += s.N
		sumM[s.Kind] += s.M
		if s.Kind.IsPoint() != (s.Trace == 0) {
			fail("%s span (id %d) has trace %d: point kinds carry none, every other kind one", s.Kind, s.ID, s.Trace)
			continue
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
		switch s.Kind {
		case span.KindPunctArrive, span.KindPunctDiscard:
			// An operator instance's own arrivals: the shards' in a
			// sharded run (the router's arrive only marks trace birth).
			if (s.Shard >= 0) == (o.Shards > 1) {
				punctsIn[s.Side]++
			}
		case span.KindPunctEmit:
			if s.Shard < 0 { // the single instance, or align's join-wide terminal
				emits++
			}
		}
	}
	eq := func(what string, got, want int64) {
		if got != want {
			fail("%s: spans say %d, Metrics %d", what, got, want)
		}
	}
	eq("purge_run count / PurgeRuns", count[span.KindPurgeRun], m.PurgeRuns)
	eq("Σ purge_run.M / PurgeScanned", sumM[span.KindPurgeRun], m.PurgeScanned)
	eq("relocate count / Relocations", count[span.KindRelocate], m.Relocations)
	eq("Σ relocate.N / SpilledTuples", sumN[span.KindRelocate], m.SpilledTuples)
	eq("pass_end count / DiskPasses", count[span.KindPassEnd], m.DiskPasses)
	eq("pass_chunk count / DiskChunks", count[span.KindPassChunk], m.DiskChunks)
	eq("Σ pass_end.N / DiskExamined", sumN[span.KindPassEnd], m.DiskExamined)
	eq("Σ pass_end.M / DiskJoins", sumM[span.KindPassEnd], m.DiskJoins)
	// Purge-buffer parkings ride the M field and are not in Purged /
	// DroppedOnFly. A drop against a retired key has no lifecycle: a
	// closed_drop point span, N on the fly and M from the disk portion
	// (both 0 for a parking).
	eq("Σ punct_purge_mem.N + punct_purge_disk.N + closed_drop.M / Purged",
		sumN[span.KindPunctPurgeMem]+sumN[span.KindPunctPurgeDisk]+sumM[span.KindClosedDrop], m.Purged)
	eq("Σ punct_drop_fly.N + closed_drop.N / DroppedOnFly",
		sumN[span.KindPunctDropFly]+sumN[span.KindClosedDrop], m.DroppedOnFly)
	eq("join-wide punct_emit / PunctsOut", emits, m.PunctsOut)
	n := int64(max(o.Shards, 1))
	for side := 0; side < 2; side++ {
		eq(fmt.Sprintf("punct_arrive + punct_discard side %d / PunctsIn", side), punctsIn[side], n*m.PunctsIn[side])
	}
	if o.Admitted {
		in := m.TuplesIn[0] + m.TuplesIn[1]
		eq("tuple_probe count / TuplesIn", count[span.KindTupleProbe], in)
		eq("Σ tuple_probe.N / memory results", sumN[span.KindTupleProbe], m.TuplesOut-m.DiskJoins)
		eq("Σ tuple_probe.M / Examined", sumM[span.KindTupleProbe], m.Examined)
		if o.Shards > 1 {
			eq("tuple_route count / TuplesIn", count[span.KindTupleRoute], in)
		}
	}

	// Lifecycles: every punctuation trace has an arrive and a terminal
	// (across all shards of the trace), every pass trace is start/io/end.
	for trace, ss := range byTrace {
		var punct, arrived, closed bool
		var starts, ios, ends int
		for _, s := range ss {
			punct = punct || s.Kind.IsPunct()
			switch s.Kind {
			case span.KindPunctArrive:
				arrived = true
			case span.KindPunctEmit, span.KindPunctEOSClose:
				closed = true
			case span.KindPassStart:
				starts++
			case span.KindPassIO:
				ios++
			case span.KindPassEnd:
				ends++
			}
		}
		if punct && !arrived {
			fail("trace %d: punctuation spans without an arrive span (orphan)", trace)
		}
		if punct && !closed {
			fail("trace %d: punctuation lifecycle never closed (no emit/eos_close)", trace)
		}
		if (starts > 0 || ends > 0) && (starts != 1 || ios != 1 || ends != 1) {
			fail("trace %d: pass trace has %d start / %d io / %d end spans, want 1/1/1", trace, starts, ios, ends)
		}
	}
	return bad
}

// Stream is the fixed schedule over gen's synthetic schemas: 30 keys
// arrive on both sides (with a 256-byte memory threshold the state
// relocates), then every key is punctuated on both sides (purge runs;
// tuples whose partners are on disk park for the pass; propagation) —
// every third key with an A tuple arriving between B's punctuation and
// A's own, to be dropped on the fly or parked — then a few fresh keys.
// Every tuple is admitted into tracing.
func Stream() []gen.Arrival {
	var arrs []gen.Arrival
	ts := stream.Time(0)
	tuple := func(port int, key int64) {
		ts++
		sc := gen.SchemaA
		if port == 1 {
			sc = gen.SchemaB
		}
		t := stream.MustTuple(sc, ts, value.Int(key), value.Str("payload"))
		t.Span = span.NewID()
		arrs = append(arrs, gen.Arrival{Port: port, Item: stream.TupleItem(t)})
	}
	for k := int64(0); k < 30; k++ {
		tuple(0, k)
		tuple(1, k)
	}
	for k := int64(0); k < 30; k++ {
		for _, port := range []int{1, 0} {
			if port == 0 && k%3 == 0 {
				tuple(0, k)
			}
			ts++
			p := punct.MustKeyOnly(2, gen.KeyAttr, punct.Const(value.Int(k)))
			arrs = append(arrs, gen.Arrival{Port: port, Item: stream.PunctItem(p, ts)})
		}
	}
	for k := int64(40); k < 44; k++ {
		tuple(0, k)
		tuple(1, k)
	}
	return arrs
}
