package core

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

// obsConfig is a configuration that exercises every traced path: eager
// purge, propagation, and a memory threshold low enough that the bulk
// phase of the workload forces state relocation (and therefore a disk
// pass at the end).
func obsConfig(rec span.Tracer) Config {
	cfg := defaultConfig()
	cfg.Instr = obs.NewInstr(rec, nil, "pjoin")
	cfg.Thresholds.Purge = 1
	cfg.Thresholds.PropagateCount = 1
	cfg.Thresholds.MemoryBytes = 256
	return cfg
}

// obsWorkload grows the state first (tuples only, so relocation fires),
// then punctuates every key on both sides (purge runs, left-over joins
// park in purge buffers, propagation becomes possible).
func obsWorkload() []feedItem {
	var items []feedItem
	ts := stream.Time(1)
	for k := int64(0); k < 30; k++ {
		items = append(items, tupA(k, "a", ts))
		ts++
		items = append(items, tupB(k, "b", ts))
		ts++
	}
	for k := int64(0); k < 30; k++ {
		items = append(items, punctFor(0, k, ts))
		ts++
		items = append(items, punctFor(1, k, ts))
		ts++
	}
	return items
}

// TestObsEventsReconcileWithMetrics is the trace/metrics consistency
// contract: every counted state transition emits exactly one span, so
// an offline trace analysis reaches the same totals as the operator's
// own counters. The identities are the one reconciliation table
// (spancheck.Check), run here over the fixed stream it ships.
func TestObsEventsReconcileWithMetrics(t *testing.T) {
	rec := &span.Recorder{}
	cfg := obsConfig(rec)
	cfg.SchemaA, cfg.SchemaB = gen.SchemaA, gen.SchemaB
	j, err := New(cfg, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	var items []feedItem
	for _, a := range spancheck.Stream() {
		items = append(items, feedItem{a.Port, a.Item})
	}
	run(t, j, items)

	m := j.Metrics()
	// The workload must actually reach the spill, purge, drop and
	// propagation paths, or the reconciliation below is vacuous.
	if m.Relocations == 0 || m.DiskPasses == 0 || m.PurgeRuns == 0 || m.PunctsOut == 0 ||
		m.DroppedOnFly == 0 || m.DiskJoins == 0 {
		t.Fatalf("workload missed a traced path: %+v", m)
	}
	for _, d := range spancheck.Check(rec.Spans(), m, spancheck.Opts{Admitted: true}) {
		t.Error(d)
	}
	// purge_run N counts memory removals (freed or parked);
	// Metrics.Purged counts freed ones plus disk-pass drops.
	var removed int64
	for _, s := range rec.Spans() {
		if s.Kind == span.KindPurgeRun {
			removed += s.N
		}
		if s.Shard != -1 || s.Op != "pjoin" {
			t.Fatalf("span %+v not stamped with the unsharded operator's identity", s)
		}
	}
	if removed == 0 {
		t.Error("no purge_run span removed anything")
	}
}

// TestObsRetiredLifecyclesClose: without propagation nothing is ever
// released, so a punctuation that retires into a neighbour gets its
// punct_eos_close as it leaves the set and the survivors get theirs at
// Finish: every lifecycle closes exactly once, and the one reconciliation
// table holds.
func TestObsRetiredLifecyclesClose(t *testing.T) {
	rec := &span.Recorder{}
	cfg := obsConfig(rec)
	cfg.SchemaA, cfg.SchemaB = gen.SchemaA, gen.SchemaB
	cfg.DisablePropagation = true
	j, err := New(cfg, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	var items []feedItem
	for _, a := range spancheck.Stream() {
		items = append(items, feedItem{a.Port, a.Item})
	}
	run(t, j, items)
	if a, b := j.PunctSetSizes(); a != 1 || b != 1 {
		t.Errorf("%d and %d punctuations left after keys 0..29 closed on both sides, want one range each", a, b)
	}
	closes := map[uint64]int{}
	for _, s := range rec.Spans() {
		if s.Kind == span.KindPunctEOSClose {
			closes[s.Trace]++
		}
	}
	if m := j.Metrics(); int64(len(closes)) != m.PunctsIn[0]+m.PunctsIn[1] {
		t.Errorf("%d lifecycles closed, %d punctuations arrived", len(closes), m.PunctsIn[0]+m.PunctsIn[1])
	}
	for trace, n := range closes {
		if n != 1 {
			t.Errorf("trace %d closed %d times", trace, n)
		}
	}
	for _, d := range spancheck.Check(rec.Spans(), j.Metrics(), spancheck.Opts{Admitted: true}) {
		t.Error(d)
	}
}

// TestClosedDropSpansParking: an arrival whose key only a retired
// punctuation closes, while the opposite state's bucket has a disk
// portion, parks instead of dropping, and its closed_drop span says so
// with N and M 0.
func TestClosedDropSpansParking(t *testing.T) {
	rec := &span.Recorder{}
	cfg := obsConfig(rec)
	cfg.NumBuckets = 1
	cfg.Thresholds.MemoryBytes = 1 << 20
	cfg.DisablePropagation = true
	j, err := New(cfg, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(fi feedItem) {
		t.Helper()
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	feed(tupB(7, "on-disk", 1))
	if _, err := j.StatesForTest()[1].SpillBucket(0, 2); err != nil {
		t.Fatal(err)
	}
	feed(punctFor(1, 1, 3))
	if n, c := j.psets[1].Len(), j.psets[1].ClosedLen(); n != 0 || c != 1 {
		t.Fatalf("B's set holds %d entries and %d closed intervals, want its punctuation on 1 retired", n, c)
	}
	feed(tupA(1, "parks", 4))
	var parkings []span.Span
	for _, s := range rec.Spans() {
		if s.Kind == span.KindClosedDrop {
			parkings = append(parkings, s)
		}
	}
	if len(parkings) != 1 || parkings[0].N != 0 || parkings[0].M != 0 || parkings[0].B == 0 {
		t.Errorf("closed_drop spans %+v, want one parking (N 0, M 0, its bytes)", parkings)
	}
	if m := j.Metrics(); m.DroppedOnFly != 0 {
		t.Errorf("dropped on the fly %d, want the arrival parked", m.DroppedOnFly)
	}
}

// TestPurgeDiskSpansReportDiskBytes: a punct_purge_disk span — or a
// closed_drop span, when the key's punctuation has retired — carries what
// the partition loses when the pass drops a tuple — its whole spill
// record, header included — so over a pass that drops disk tuples, with
// no spill racing it and no pid written back (propagation off), the
// spans' bytes sum to the fall in the states' DiskBytes.
func TestPurgeDiskSpansReportDiskBytes(t *testing.T) {
	rec := &span.Recorder{}
	cfg := obsConfig(rec)
	cfg.DisablePropagation = true
	cfg.Thresholds.DiskJoinIdle = 10
	j, err := New(cfg, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	// Both sides spill as they fill; then side B closes ten keys, whose
	// side-A tuples on disk the next pass drops.
	var items []feedItem
	ts := stream.Time(1)
	for k := int64(0); k < 30; k++ {
		items = append(items, tupA(k, "payload-a", ts), tupB(k, "payload-b", ts+1))
		ts += 2
	}
	for k := int64(0); k < 10; k++ {
		items = append(items, punctFor(1, k, ts))
		ts++
	}
	for _, fi := range items {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	diskBytes := func() int64 {
		var n int64
		for _, st := range j.StatesForTest() {
			n += st.Stats().DiskBytes
		}
		return n
	}
	before, passes := diskBytes(), j.Metrics().DiskPasses
	if _, err := j.OnIdle(ts + 100); err != nil {
		t.Fatal(err)
	}
	if j.Metrics().DiskPasses != passes+1 {
		t.Fatalf("the idle activation ran %d passes, want 1", j.Metrics().DiskPasses-passes)
	}
	var dropped, spanBytes int64
	for _, s := range rec.Spans() {
		switch s.Kind {
		case span.KindPunctPurgeDisk:
			dropped += s.N
			spanBytes += s.B
		case span.KindClosedDrop:
			dropped += s.M
			spanBytes += s.B
		}
	}
	if dropped == 0 {
		t.Fatal("the pass dropped no disk tuple")
	}
	if lost := before - diskBytes(); spanBytes != lost {
		t.Errorf("%d disk tuples dropped: punct_purge_disk spans report %d bytes, the disk lost %d", dropped, spanBytes, lost)
	}
}

// TestPunctLag checks the punctuation-lag gauge source: before any
// propagation the lag is the full stream time; after the final
// propagation it collapses to now - lastPropagation.
func TestPunctLag(t *testing.T) {
	j, err := New(obsConfig(&span.Recorder{}), &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	items := obsWorkload()
	mid := items[:len(items)/2]
	var last stream.Time
	for _, fi := range mid {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatalf("Process: %v", err)
		}
		last = fi.item.Ts
	}
	if got := j.PunctLag(); got != last {
		t.Errorf("lag before any propagation: got %v, want full elapsed time %v", got, last)
	}
	for _, fi := range items[len(items)/2:] {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatalf("Process: %v", err)
		}
		last = fi.item.Ts
	}
	for port := 0; port < 2; port++ {
		last++
		if err := j.Process(port, stream.EOSItem(last), last); err != nil {
			t.Fatalf("EOS: %v", err)
		}
	}
	if err := j.Finish(last + 1); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if j.Metrics().PunctsOut == 0 {
		t.Fatal("workload propagated nothing")
	}
	if got := j.PunctLag(); got < 0 || got >= last {
		t.Errorf("lag after propagation: got %v, want small non-negative (< %v)", got, last)
	}
}

// TestPunctSetGauges: the live sampler carries each side's punctuation-set
// size beside punct_lag_ms, the number PunctSetSizes returns: live
// punctuations plus the intervals the retired ones' keys make.
func TestPunctSetGauges(t *testing.T) {
	lv := obs.NewLive(stream.Millisecond)
	cfg := defaultConfig()
	cfg.Instr = obs.NewInstr(nil, lv, "pjoin")
	cfg.Thresholds.PropagateCount = 1
	j, err := New(cfg, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	// A's tuple on key 1 holds A's punctuation on 1 back; A's on 2 and B's
	// on 3 and 4 match nothing and are propagated; A's on 2 retires into an
	// interval, and B's two into one.
	for _, fi := range []feedItem{tupA(1, "a", 1), punctFor(0, 1, 2), punctFor(0, 2, 3), punctFor(1, 3, 4), punctFor(1, 4, 5)} {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	lv.Flush(6)
	last, _ := lv.LastValues()
	a, b := j.PunctSetSizes()
	if a != 2 || b != 1 || last["pjoin.punct_set.a"] != float64(a) || last["pjoin.punct_set.b"] != float64(b) {
		t.Errorf("PunctSetSizes %d, %d, gauges %v, %v, want 2, 1", a, b,
			last["pjoin.punct_set.a"], last["pjoin.punct_set.b"])
	}
	if m := j.Metrics(); m.PunctsOut != 3 {
		t.Errorf("%d punctuations propagated, want 3", m.PunctsOut)
	}
}

// TestSpillAppendErrorSurfaces proves a failing spill device during
// state relocation surfaces as a Process error (not a panic, not silent
// state corruption) and is recorded as a spill_error span, in PJoin and
// in XJoin.
func TestSpillAppendErrorSurfaces(t *testing.T) {
	for _, jn := range joins {
		t.Run(jn.name, func(t *testing.T) {
			rec := &span.Recorder{}
			boom := errors.New("disk gone")
			cfg := obsConfig(rec)
			cfg.SpillA = store.NewFaultSpill(store.NewMemSpill(), store.FaultAppend, 1, boom)
			cfg.SpillB = store.NewFaultSpill(store.NewMemSpill(), store.FaultAppend, 1, boom)
			j, err := jn.build(cfg, &op.Collector{})
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
			if n := rec.Count(span.KindSpillError); n == 0 {
				t.Error("no spill_error span recorded")
			}
		})
	}
}

// TestSpillReadErrorSurfaces proves a read failure during the disk-join
// pass surfaces from Finish and is traced.
func TestSpillReadErrorSurfaces(t *testing.T) {
	rec := &span.Recorder{}
	boom := errors.New("unreadable sector")
	cfg := obsConfig(rec)
	cfg.SpillA = store.NewFaultSpill(store.NewMemSpill(), store.FaultRead, 1, boom)
	cfg.SpillB = store.NewFaultSpill(store.NewMemSpill(), store.FaultRead, 1, boom)
	j, err := New(cfg, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	var last stream.Time
	var runErr error
	for _, fi := range obsWorkload() {
		if runErr = j.Process(fi.port, fi.item, fi.item.Ts); runErr != nil {
			break
		}
		last = fi.item.Ts
	}
	if runErr == nil {
		for port := 0; port < 2; port++ {
			last++
			if runErr = j.Process(port, stream.EOSItem(last), last); runErr != nil {
				break
			}
		}
	}
	if runErr == nil {
		runErr = j.Finish(last + 1)
	}
	if !errors.Is(runErr, boom) {
		t.Fatalf("run error: got %v, want injected %v", runErr, boom)
	}
	if n := rec.Count(span.KindSpillError); n == 0 {
		t.Error("no spill_error span recorded")
	}
}
