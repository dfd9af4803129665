package core

import (
	"fmt"
	"testing"

	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// TestTargetedPurgeScansOnlyMatches pins the indexed purge's cost claim:
// a constant punctuation resolves to one group removal, so PurgeScanned
// grows by the number of tuples REMOVED, not by the occupancy a purge
// that walks the table examines. Range punctuations still scan, and
// PurgeWalk keeps the table walk's accounting everywhere: the victim's
// whole memory portion, every run.
func TestTargetedPurgeScansOnlyMatches(t *testing.T) {
	cfg := defaultConfig()
	cfg.NumBuckets = 1 // every key in one bucket: scans cost full occupancy
	cfg.Thresholds.Purge = 1
	j, err := New(cfg, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	ts := stream.Time(0)
	for k := int64(0); k < 10; k++ {
		ts++
		if err := j.Process(1, tupB(k, "b", ts).item, ts); err != nil {
			t.Fatal(err)
		}
	}

	// Constant punctuation from A for key 3: the B group is removed
	// directly; the other nine tuples are not examined.
	ts++
	if err := j.Process(0, punctFor(0, 3, ts).item, ts); err != nil {
		t.Fatal(err)
	}
	m := j.Metrics()
	if m.Purged != 1 {
		t.Fatalf("Purged = %d, want 1", m.Purged)
	}
	if m.PurgeScanned != 1 {
		t.Errorf("PurgeScanned after constant punctuation = %d, want 1 (removed tuple only)", m.PurgeScanned)
	}
	// The table walk pays occupancy even for the constant case.
	if m.PurgeWalk != 10 {
		t.Errorf("PurgeWalk after constant punctuation = %d, want 10 (full occupancy)", m.PurgeWalk)
	}

	// Range punctuation covering keys 5..7: no direct resolution, the
	// purge scans the remaining 9-tuple bucket.
	ts++
	rng := feedItem{0, stream.PunctItem(punct.MustKeyOnly(2, 0, punct.MustRange(value.Int(5), value.Int(7))), ts)}
	if err := j.Process(0, rng.item, ts); err != nil {
		t.Fatal(err)
	}
	m = j.Metrics()
	if m.Purged != 4 {
		t.Fatalf("Purged = %d, want 4", m.Purged)
	}
	if got := m.PurgeScanned - 1; got != 9 {
		t.Errorf("range punctuation scanned %d, want 9 (full occupancy)", got)
	}
	if got := m.PurgeWalk - 10; got != 9 {
		t.Errorf("range punctuation walked %d, want 9 (full occupancy)", got)
	}

	// A run that finds nothing to remove still walks what is left.
	ts++
	if err := j.Process(0, punctFor(0, 42, ts).item, ts); err != nil {
		t.Fatal(err)
	}
	m = j.Metrics()
	if m.Purged != 4 || m.PurgeScanned != 10 {
		t.Errorf("empty run: Purged = %d, PurgeScanned = %d, want 4 and 10 unchanged", m.Purged, m.PurgeScanned)
	}
	if got := m.PurgeWalk - 19; got != 6 {
		t.Errorf("empty run walked %d, want 6 (what the state still holds)", got)
	}
}

// TestMultiKeyPurgeParksInArrivalOrder covers the purge run that takes
// several key groups: each group comes back in the state's one scratch
// slice (store.State.TakeKeyGroup), so the run must have copied a group
// out before it takes the next, and the purge buffer it leaves must be
// what a bucket-ordered scan leaves — every matching tuple once, in
// arrival order (want, collected as the tuples go in).
func TestMultiKeyPurgeParksInArrivalOrder(t *testing.T) {
	cfg := defaultConfig()
	cfg.NumBuckets = 1
	cfg.Thresholds.Purge = 1
	cfg.DisablePropagation = true
	j, err := New(cfg, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	ts := stream.Time(1)
	if err := j.Process(0, tupA(9, "a", ts).item, ts); err != nil {
		t.Fatal(err)
	}
	// Side A's bucket goes to disk: what B purges parks instead of
	// being freed.
	if _, err := j.base.States[0].SpillBucket(0, ts+1); err != nil {
		t.Fatal(err)
	}
	ts++
	var want []stream.Time
	for r := 0; r < 3; r++ { // keys interleaved, so groups are not contiguous
		for k := int64(0); k < 6; k++ {
			ts++
			if err := j.Process(1, tupB(k, "b", ts).item, ts); err != nil {
				t.Fatal(err)
			}
			if k == 1 || k == 3 || k == 4 {
				want = append(want, ts)
			}
		}
	}
	ts++
	enum := punct.MustKeyOnly(2, 0, punct.MustEnum(value.Int(4), value.Int(1), value.Int(3)))
	if err := j.Process(0, stream.PunctItem(enum, ts), ts); err != nil {
		t.Fatal(err)
	}
	var got []stream.Time
	for _, sd := range j.base.States[1].Bucket(0).PurgeBuf {
		got = append(got, sd.ATS)
	}
	if len(want) != 9 {
		t.Fatalf("fed %d matching tuples, want 9 (three keys, three tuples each)", len(want))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("purge buffer differs from the bucket-ordered scan's:\ngot  %v\nwant %v", got, want)
	}
}
