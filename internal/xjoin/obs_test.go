package xjoin

import (
	"errors"
	"testing"

	"pjoin/internal/gen"
	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/op"
	"pjoin/internal/oracle/spancheck"
	"pjoin/internal/store"
	"pjoin/internal/stream"
)

func obsConfig(rec span.Tracer) Config {
	return Config{
		SchemaA: schemaA, SchemaB: schemaB,
		AttrA: 0, AttrB: 0,
		MemoryBytes: 256,
		Instr:       obs.NewInstr(rec, nil, "xjoin"),
	}
}

func obsWorkload() []feedItem {
	var items []feedItem
	ts := stream.Time(1)
	for k := int64(0); k < 30; k++ {
		items = append(items, tupA(k, "a", ts))
		ts++
		items = append(items, tupB(k, "b", ts))
		ts++
	}
	return items
}

// TestObsEventsReconcileWithMetrics: the baseline reconciles under the
// same table, over the same fixed stream, as PJoin (spancheck) — minus
// anything punctuation-related: XJoin has no purge or propagation, and
// records every punctuation it ignores as a punct_discard.
func TestObsEventsReconcileWithMetrics(t *testing.T) {
	rec := &span.Recorder{}
	cfg := obsConfig(rec)
	cfg.SchemaA, cfg.SchemaB = gen.SchemaA, gen.SchemaB
	j, err := New(cfg, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	arrs := spancheck.Stream()
	var items []feedItem
	for _, a := range arrs {
		items = append(items, feedItem{a.Port, a.Item})
	}
	run(t, j, items)

	m := j.Metrics()
	if m.Relocations == 0 || m.DiskPasses == 0 || m.DiskJoins == 0 {
		t.Fatalf("workload missed the spill path: %+v", m)
	}
	for _, d := range spancheck.Check(rec.Spans(), m, spancheck.Opts{Admitted: true}) {
		t.Error(d)
	}
	sum := gen.Summarize(arrs)
	if got, want := rec.Count(span.KindPunctDiscard), int64(sum.Puncts[0]+sum.Puncts[1]); got != want || want == 0 {
		t.Errorf("punct_discard spans: got %d, want one per punctuation (%d)", got, want)
	}
	for _, k := range []span.Kind{span.KindPurgeRun, span.KindPunctArrive, span.KindPunctEmit, span.KindPunctPurgeMem} {
		if got := rec.Count(k); got != 0 {
			t.Errorf("%v spans: got %d, XJoin has no such path", k, got)
		}
	}
}

// TestSpillAppendErrorSurfaces: a failing spill device during XJoin's
// state relocation surfaces as a Process error and a spill_error span.
func TestSpillAppendErrorSurfaces(t *testing.T) {
	rec := &span.Recorder{}
	boom := errors.New("disk gone")
	cfg := obsConfig(rec)
	cfg.SpillA = store.NewFaultSpill(store.NewMemSpill(), store.FaultAppend, 1, boom)
	cfg.SpillB = store.NewFaultSpill(store.NewMemSpill(), store.FaultAppend, 1, boom)
	j, err := New(cfg, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	var procErr error
	for _, fi := range obsWorkload() {
		if procErr = j.Process(fi.port, fi.item, fi.item.Ts); procErr != nil {
			break
		}
	}
	if !errors.Is(procErr, boom) {
		t.Fatalf("Process error: got %v, want injected %v", procErr, boom)
	}
	if rec.Count(span.KindSpillError) == 0 {
		t.Error("no spill_error span recorded")
	}
}
