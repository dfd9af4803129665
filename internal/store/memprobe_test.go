package store

import (
	"testing"

	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// The seq-guarded memoizing probe (ProbeMemCached) must be observably
// identical to a fresh ProbeMem — same matches in the same order, same
// examined count — no matter how probes interleave with mutations. The
// batched join relies on this: a vectorized ProcessBatch reuses one
// MemProbe across a whole batch and only the seq guard keeps a run of
// same-key probes honest across the inserts the batch itself performs.

// walkProbe is the reference probe the index is checked against: the
// chained-bucket walk of the paper's hash table. It visits every
// memory-resident tuple of key's bucket in arrival order, appends the
// ones whose join value equals key to dst, and reports how many tuples
// it walked — the bucket's occupancy.
func walkProbe(st *State, key value.Value, dst []*StoredTuple) (matches []*StoredTuple, walked int) {
	st.Bucket(st.BucketOf(key)).ForEachMem(func(s *StoredTuple) {
		walked++
		if st.Key(s.T).Equal(key) {
			dst = append(dst, s)
		}
	})
	return dst, walked
}

// sameProbe asserts the cached probe result equals a fresh probe for
// key against st, and both equal the reference walk: same matches in
// the same order, examined = the matches, walked = the occupancy.
func sameProbe(t *testing.T, st *State, key value.Value, mp *MemProbe) {
	t.Helper()
	got, gotEx := st.ProbeMemCached(key, mp)
	want, wantEx := st.ProbeMem(key, nil)
	if gotEx != wantEx {
		t.Fatalf("key %v: cached examined = %d, fresh = %d", key, gotEx, wantEx)
	}
	ref, walked := walkProbe(st, key, nil)
	if wantEx != len(ref) {
		t.Fatalf("key %v: examined = %d, the walk matches %d", key, wantEx, len(ref))
	}
	if mp.Walked() != walked {
		t.Fatalf("key %v: cached walked = %d, the walk visits %d", key, mp.Walked(), walked)
	}
	if len(got) != len(want) || len(got) != len(ref) {
		t.Fatalf("key %v: cached matches = %d, fresh = %d, walk = %d", key, len(got), len(want), len(ref))
	}
	for i := range got {
		if got[i] != want[i] || got[i] != ref[i] {
			t.Fatalf("key %v: match %d differs: cached %v, fresh %v, walk %v", key, i, got[i].T, want[i].T, ref[i].T)
		}
	}
}

func TestProbeMemCachedTracksEveryMutation(t *testing.T) {
	st := mkState(t, 4)
	var mp MemProbe
	k := value.Int(3)

	// Empty state: miss memoized too.
	sameProbe(t, st, k, &mp)

	// Insert invalidates: the cached probe must see each new tuple.
	for i := int64(0); i < 12; i++ {
		if _, err := st.Insert(tup(t, i%4, stream.Time(i+1))); err != nil {
			t.Fatal(err)
		}
		sameProbe(t, st, k, &mp)
	}

	// Repeated probes without mutation are hits — and still identical.
	sameProbe(t, st, k, &mp)
	sameProbe(t, st, k, &mp)

	// Key switch with the same MemProbe must re-probe.
	sameProbe(t, st, value.Int(1), &mp)
	sameProbe(t, st, k, &mp)

	// Targeted group removal.
	if _, removed := st.TakeKeyGroup(k); len(removed) == 0 {
		t.Fatal("TakeKeyGroup removed nothing")
	}
	sameProbe(t, st, k, &mp)

	// Predicate purge on the probed key's bucket.
	h := st.hash(value.Int(1))
	bkt := int(h % uint64(len(st.bkts)))
	st.FilterMem(bkt, func(s *StoredTuple) bool { return s.T.Ts <= 4 })
	sameProbe(t, st, value.Int(1), &mp)

	// Window expiry.
	st.ExpireMemPrefix(bkt, 8)
	sameProbe(t, st, value.Int(1), &mp)

	// Spilling a bucket empties its memory portion.
	if _, err := st.SpillBucket(bkt, 100); err != nil {
		t.Fatal(err)
	}
	sameProbe(t, st, value.Int(1), &mp)
}

func TestProbeMemCachedWalked(t *testing.T) {
	st := mkState(t, 1)
	var mp MemProbe
	for i := int64(0); i < 10; i++ {
		if _, err := st.Insert(tup(t, i%3, stream.Time(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// The table-walk price of a probe is its bucket's occupancy, whatever
	// the key matches, and a memoized hit must reproduce that accounting
	// exactly.
	for _, k := range []int64{0, 99} {
		sameProbe(t, st, value.Int(k), &mp)
		if mp.Walked() != 10 {
			t.Fatalf("key %d: walked = %d, want full occupancy 10", k, mp.Walked())
		}
		sameProbe(t, st, value.Int(k), &mp)
		if mp.Walked() != 10 {
			t.Fatalf("key %d: memoized walked = %d, want 10", k, mp.Walked())
		}
	}
}

// TestProbeMemCachedHitDoesNotAllocate pins the batched probe budget:
// after the first (memoizing) probe, same-key hits are zero-allocation
// — the whole point of reusing one MemProbe across a batch.
func TestProbeMemCachedHitDoesNotAllocate(t *testing.T) {
	st := mkState(t, 4)
	for i := int64(0); i < 64; i++ {
		if _, err := st.Insert(tup(t, i%8, stream.Time(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	var mp MemProbe
	k := value.Int(5)
	st.ProbeMemCached(k, &mp) // memoize
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 8; j++ {
			st.ProbeMemCached(k, &mp)
		}
	})
	if allocs != 0 {
		t.Errorf("cached probe hit allocates %.1f objects per 8-probe run, want 0", allocs)
	}
}
