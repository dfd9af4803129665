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
// grows by the number of tuples REMOVED, not by the bucket occupancy the
// pre-index scan walked. Range punctuations still scan (the fallback the
// cost model prices), and DisableStateIndex restores the old accounting
// everywhere.
func TestTargetedPurgeScansOnlyMatches(t *testing.T) {
	build := func(disableIndex bool) *PJoin {
		cfg := defaultConfig()
		cfg.NumBuckets = 1 // every key in one bucket: scans cost full occupancy
		cfg.Thresholds.Purge = 1
		cfg.DisableStateIndex = disableIndex
		j, err := New(cfg, &op.Collector{})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	fill := func(j *PJoin) stream.Time {
		ts := stream.Time(0)
		for k := int64(0); k < 10; k++ {
			ts++
			if err := j.Process(1, tupB(k, "b", ts).item, ts); err != nil {
				t.Fatal(err)
			}
		}
		return ts
	}

	j := build(false)
	ts := fill(j)

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

	// The pre-index fallback pays occupancy even for the constant case.
	j = build(true)
	ts = fill(j)
	ts++
	if err := j.Process(0, punctFor(0, 3, ts).item, ts); err != nil {
		t.Fatal(err)
	}
	m = j.Metrics()
	if m.Purged != 1 {
		t.Fatalf("fallback Purged = %d, want 1", m.Purged)
	}
	if m.PurgeScanned != 10 {
		t.Errorf("fallback PurgeScanned = %d, want 10 (full scan)", m.PurgeScanned)
	}
}

// TestMultiKeyPurgeParksInArrivalOrder covers the purge run that takes
// several key groups: each group comes back in the state's one scratch
// slice (store.State.TakeKeyGroup), so the run must have copied a group
// out before it takes the next, and the purge buffer it leaves must be
// the bucket-ordered scan's — every parked tuple once, in arrival order.
func TestMultiKeyPurgeParksInArrivalOrder(t *testing.T) {
	parked := func(disableIndex bool) []stream.Time {
		cfg := defaultConfig()
		cfg.NumBuckets = 1
		cfg.Thresholds.Purge = 1
		cfg.DisablePropagation = true
		cfg.DisableStateIndex = disableIndex
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
		for r := 0; r < 3; r++ { // keys interleaved, so groups are not contiguous
			for k := int64(0); k < 6; k++ {
				ts++
				if err := j.Process(1, tupB(k, "b", ts).item, ts); err != nil {
					t.Fatal(err)
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
			if k := sd.T.Values[0].IntVal(); k != 1 && k != 3 && k != 4 {
				t.Errorf("parked a tuple of key %d", k)
			}
			got = append(got, sd.ATS())
		}
		return got
	}
	indexed, scan := parked(false), parked(true)
	if len(indexed) != 9 {
		t.Fatalf("parked %d tuples, want 9 (three keys, three tuples each)", len(indexed))
	}
	for i := range indexed {
		if i > 0 && indexed[i] <= indexed[i-1] {
			t.Errorf("purge buffer out of arrival order: %v", indexed)
			break
		}
	}
	if fmt.Sprint(indexed) != fmt.Sprint(scan) {
		t.Errorf("purge buffer differs from the scan's:\nindexed %v\nscan    %v", indexed, scan)
	}
}
