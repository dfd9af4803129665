package core

import (
	"testing"

	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// TestNoPropagationWhileMatchingTupleOnDisk exercises the subtle
// interaction between relocation and Theorem 1: a punctuation whose
// matching tuples sit on disk must not propagate — its count only
// becomes trustworthy once a disk pass has indexed the disk-resident
// portion, and it only reaches zero once those tuples are actually
// purged.
func TestNoPropagationWhileMatchingTupleOnDisk(t *testing.T) {
	cfg := defaultConfig()
	cfg.NumBuckets = 1
	sink := &op.Collector{}
	j, err := New(cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	// a1 arrives and is relocated to disk before any punctuation exists,
	// so it reaches disk with a null pid.
	fi := tupA(1, "a1", 1)
	if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
		t.Fatal(err)
	}
	if _, err := j.base.States[0].SpillBucket(0, 2); err != nil {
		t.Fatal(err)
	}

	// A punctuates key 1. Index build (triggered by the propagation
	// request below) scans only memory — a1 is invisible, so without the
	// disk machinery the count would be 0 and the punctuation would leak
	// out in violation of Theorem 1.
	if err := j.Process(0, punctFor(0, 1, 3).item, 3); err != nil {
		t.Fatal(err)
	}
	if err := j.RequestPropagation(4); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Puncts()); got != 0 {
		t.Fatalf("punctuation propagated while its tuple is on disk (%d)", got)
	}
	// The propagation attempt ran a disk pass, which indexed a1: the
	// punctuation's count is now 1.
	a, _ := j.StateStats()
	if a.DiskTuples != 1 {
		t.Fatalf("a1 should still be on disk: %+v", a)
	}

	// B punctuates key 1: a1 becomes purgeable, but disk purge is lazy.
	if err := j.Process(1, punctFor(1, 1, 5).item, 5); err != nil {
		t.Fatal(err)
	}
	// The next propagation runs a disk pass, purges a1 from disk
	// (decrementing the count to zero) and can then release BOTH
	// punctuations.
	if err := j.RequestPropagation(6); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Puncts()); got != 2 {
		t.Fatalf("propagated %d punctuations, want 2", got)
	}
	if got := j.StateTuples(); got != 0 {
		t.Errorf("state = %d at end", got)
	}
	// Released, both stay in force; with no neighbour to retire into,
	// one entry per side is left.
	aSet, bSet := j.PunctSetSizes()
	if aSet != 1 || bSet != 1 {
		t.Errorf("punctuation sets hold %d, %d entries, want 1, 1", aSet, bSet)
	}
}

// TestEagerIndexCountsOnArrival verifies the eager index-building mode:
// counts are maintained as punctuations arrive, so a propagation request
// can be served without a separate index-build step.
func TestEagerIndexCountsOnArrival(t *testing.T) {
	cfg := defaultConfig()
	cfg.EagerIndex = true
	sink := &op.Collector{}
	j, _ := New(cfg, sink)
	seq := []feedItem{
		tupA(1, "a1", 1),
		tupA(1, "a2", 2),
		punctFor(0, 1, 3), // eagerly indexed: count = 2 immediately
	}
	for _, fi := range seq {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	e := j.psets[0].Entries()[0]
	if !e.Indexed || e.Count != 2 {
		t.Fatalf("eager index: Indexed=%v Count=%d, want true/2", e.Indexed, e.Count)
	}
	// Purge both via B's punctuation; count drains to 0.
	if err := j.Process(1, punctFor(1, 1, 4).item, 4); err != nil {
		t.Fatal(err)
	}
	if e.Count != 0 {
		t.Fatalf("count after purge = %d", e.Count)
	}
	if err := j.RequestPropagation(5); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Puncts()); got != 2 {
		t.Errorf("propagated %d, want 2", got)
	}
}

// TestLazyIndexDefersScans verifies that in lazy mode nothing is indexed
// until a propagation trigger fires.
func TestLazyIndexDefersScans(t *testing.T) {
	cfg := defaultConfig() // lazy index by default
	sink := &op.Collector{}
	j, _ := New(cfg, sink)
	seq := []feedItem{
		tupA(1, "a1", 1),
		punctFor(0, 1, 2),
	}
	for _, fi := range seq {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	e := j.psets[0].Entries()[0]
	if e.Indexed {
		t.Fatal("lazy mode indexed on arrival")
	}
	if m := j.Metrics(); m.IndexScanned != 0 {
		t.Fatalf("IndexScanned = %d before any propagation trigger", m.IndexScanned)
	}
	if err := j.RequestPropagation(3); err != nil {
		t.Fatal(err)
	}
	if !e.Indexed || e.Count != 1 {
		t.Errorf("after pull: Indexed=%v Count=%d", e.Indexed, e.Count)
	}
}

// TestLazyPurgeDefersCoveredTuples checks §3.4's lazy purge over many
// keys: with a purge threshold of 11, ten punctuations that each cover a
// stored tuple purge nothing, and the eleventh purges all ten.
func TestLazyPurgeDefersCoveredTuples(t *testing.T) {
	cfg := defaultConfig()
	cfg.Thresholds.Purge = 11
	sink := &op.Collector{}
	j, _ := New(cfg, sink)
	var ts stream.Time
	feed := func(fi feedItem) {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(0); k < 10; k++ {
		ts++
		feed(tupB(k, "b", ts))
		ts++
		feed(punctFor(0, k, ts))
	}
	if got := j.StateTuples(); got != 10 {
		t.Fatalf("lazy threshold purged early: state = %d", got)
	}
	ts++
	feed(punctFor(0, 10, ts)) // the threshold is reached: one purge
	if got := j.StateTuples(); got != 0 {
		t.Fatalf("purge at the threshold left state = %d", got)
	}
}
