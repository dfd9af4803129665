package store

import (
	"testing"

	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// Collision correctness for the key-grouped memory index. Two regimes:
//
//  1. Distinct keys that collide modulo nbuckets (nbuckets = 1 forces
//     every key into one bucket) — groups must stay independent.
//  2. Distinct keys with IDENTICAL full 64-bit hashes (forced through
//     SetHashFuncForTest) — the open-addressing index must fall back to
//     equality confirmation, never merge or shadow groups.

// degenerateHash maps every value to the same full hash, the worst case
// for the group index.
func degenerateHash(value.Value) uint64 { return 42 }

func fillCollided(t *testing.T, st *State) map[int64]int {
	t.Helper()
	// Interleaved arrivals: keys 0..4, key k appears k+1 times.
	want := map[int64]int{}
	ts := stream.Time(0)
	for round := 0; round < 5; round++ {
		for k := int64(round); k < 5; k++ {
			ts += 10
			if _, err := st.Insert(tup(t, k, ts)); err != nil {
				t.Fatal(err)
			}
			want[k]++
		}
	}
	return want
}

func checkProbeIndependence(t *testing.T, st *State, want map[int64]int) {
	t.Helper()
	for k, n := range want {
		matches, examined := st.ProbeMem(value.Int(k), nil)
		if len(matches) != n {
			t.Fatalf("key %d: %d matches, want %d", k, len(matches), n)
		}
		if examined != n {
			t.Errorf("key %d: examined %d, want %d (matches only)", k, examined, n)
		}
		var last stream.Time
		for _, s := range matches {
			if got := s.T.Values[0].IntVal(); got != k {
				t.Fatalf("key %d probe returned tuple with key %d", k, got)
			}
			if s.T.Ts <= last {
				t.Fatalf("key %d matches out of arrival order", k)
			}
			last = s.T.Ts
		}
	}
	if got, _ := st.ProbeMem(value.Int(99), nil); len(got) != 0 {
		t.Errorf("absent key matched %d tuples", len(got))
	}
}

func testCollisionIndependence(t *testing.T, st *State) {
	want := fillCollided(t, st)
	total := 0
	for _, n := range want {
		total += n
	}
	if got := st.Stats(); got.MemTuples != total || got.MemGroups != len(want) {
		t.Fatalf("stats = %+v, want %d tuples in %d groups", got, total, len(want))
	}

	// Probes resolve exactly their own group.
	checkProbeIndependence(t, st, want)

	// The reference walk agrees on every key's matches, tuple for tuple,
	// and the memoized probe reports the occupancy the walk visits.
	var mp MemProbe
	for k := range want {
		sameProbe(t, st, value.Int(k), &mp)
		if mp.Walked() != st.Bucket(st.BucketOf(value.Int(k))).MemLen() {
			t.Errorf("key %d: walked %d, want bucket occupancy", k, mp.Walked())
		}
	}

	// Targeted purge removes one whole group and nothing else.
	bkt, removed := st.TakeKeyGroup(value.Int(3))
	if len(removed) != want[3] {
		t.Fatalf("TakeKeyGroup(3) removed %d, want %d", len(removed), want[3])
	}
	for _, s := range removed {
		if s.T.Values[0].IntVal() != 3 {
			t.Fatalf("TakeKeyGroup(3) removed key %d", s.T.Values[0].IntVal())
		}
	}
	if _, again := st.TakeKeyGroup(value.Int(3)); again != nil {
		t.Error("second TakeKeyGroup(3) found tuples")
	}
	total -= want[3]
	delete(want, 3)
	if got := st.Stats(); got.MemTuples != total || got.MemGroups != len(want) {
		t.Fatalf("stats after purge = %+v, want %d tuples in %d groups", got, total, len(want))
	}
	checkProbeIndependence(t, st, want)

	// Spill the bucket and read it back: the disk portion carries every
	// surviving tuple exactly once, so disk joins see collided keys
	// independently too.
	if _, err := st.SpillBucket(bkt, 1<<30); err != nil {
		t.Fatal(err)
	}
	got := map[int64]int{}
	for _, s := range readDisk(t, st, bkt) {
		got[s.T.Values[0].IntVal()]++
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("disk key %d: %d tuples, want %d", k, got[k], n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("disk holds %d keys, want %d", len(got), len(want))
	}

	// The bucket is reusable after the spill.
	if _, err := st.Insert(tup(t, 3, 1<<31)); err != nil {
		t.Fatal(err)
	}
	if m, ex := st.ProbeMem(value.Int(3), nil); len(m) != 1 || ex != 1 {
		t.Errorf("post-spill insert: %d matches, %d examined", len(m), ex)
	}
}

func TestBucketCollisionIndependence(t *testing.T) {
	// nbuckets = 1: every key lands in the same bucket, full hashes differ.
	testCollisionIndependence(t, mkState(t, 1))
}

func TestFullHashCollisionIndependence(t *testing.T) {
	// All keys share one full 64-bit hash: lookup must confirm equality.
	st := mkState(t, 4)
	st.SetHashFuncForTest(degenerateHash)
	testCollisionIndependence(t, st)
}

func TestSetHashFuncForTestPanicsNonEmpty(t *testing.T) {
	st := mkState(t, 4)
	st.Insert(tup(t, 1, 1))
	defer func() {
		if recover() == nil {
			t.Error("no panic on non-empty state")
		}
	}()
	st.SetHashFuncForTest(degenerateHash)
}

// TestGroupGranularityExpiry drives the sliding-window prefix expiry and
// watches the group accounting: a group disappears exactly when its last
// tuple expires, never earlier.
func TestGroupGranularityExpiry(t *testing.T) {
	st := mkState(t, 1)
	// key 1 at ts 10 and 40, key 2 at ts 20, key 3 at ts 30.
	st.Insert(tup(t, 1, 10))
	st.Insert(tup(t, 2, 20))
	st.Insert(tup(t, 3, 30))
	st.Insert(tup(t, 1, 40))
	if got := st.Stats(); got.MemTuples != 4 || got.MemGroups != 3 {
		t.Fatalf("stats = %+v", got)
	}

	// Cutoff 25 expires ts 10 and 20: key 2's group dies, key 1's
	// survives through its ts-40 tuple.
	expired := st.ExpireMemPrefix(0, 25)
	if len(expired) != 2 {
		t.Fatalf("expired %d, want 2", len(expired))
	}
	if got := st.Stats(); got.MemTuples != 2 || got.MemGroups != 2 {
		t.Fatalf("stats after first expiry = %+v, want 2 tuples in 2 groups", got)
	}
	if m, _ := st.ProbeMem(value.Int(1), nil); len(m) != 1 || m[0].T.Ts != 40 {
		t.Errorf("key 1 group = %v, want the ts-40 tuple only", m)
	}
	if m, _ := st.ProbeMem(value.Int(2), nil); len(m) != 0 {
		t.Error("key 2 survived its last tuple's expiry")
	}

	// Cutoff 50 drains the rest.
	if got := st.ExpireMemPrefix(0, 50); len(got) != 2 {
		t.Fatalf("final expiry removed %d, want 2", len(got))
	}
	if got := st.Stats(); got.MemTuples != 0 || got.MemGroups != 0 {
		t.Fatalf("stats after full expiry = %+v", got)
	}
}
