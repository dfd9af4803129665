package store

import (
	"testing"
	"unsafe"

	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// closeKey removes key's group as a constant punctuation's purge does
// and frees the wrappers.
func closeKey(st *State, key int64) {
	_, removed := st.TakeKeyGroup(value.Int(key))
	for _, s := range removed {
		st.Free(s)
	}
}

// slideKeys feeds n arrivals, perKey to a key, over a sliding window of
// window live keys: each arrival that opens a key closes the key window
// places behind it. at is called after every arrival.
func slideKeys(t *testing.T, st *State, n, perKey, window int, at func(i int)) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := int64(i / perKey)
		if i%perKey == 0 && key >= int64(window) {
			closeKey(st, key-int64(window))
		}
		if _, err := st.InsertAt(tup(t, key, stream.Time(i)), stream.Time(i)); err != nil {
			t.Fatal(err)
		}
		at(i)
	}
}

// TestInsertPurgeCycleReusesWrappers: once the state has held its peak,
// insert/purge cycles carve no new wrapper chunk — a purged key's
// wrappers come back through Free and the next arrivals reuse them —
// where a state that never recycled carved one per 255 inserts.
func TestInsertPurgeCycleReusesWrappers(t *testing.T) {
	st := mkState(t, 64)
	const perKey, window, warm, cycles = 4, 256, 4096, 1 << 16
	var before int
	slideKeys(t, st, warm+cycles, perKey, window, func(i int) {
		if i == warm-1 {
			before = st.WrapperChunks()
		}
	})
	carved := st.WrapperChunks() - before
	t.Logf("%d new wrapper chunks over %d inserts after warm-up", carved, cycles)
	if carved != 0 {
		t.Errorf("%d wrapper chunks carved in the steady state, want 0", carved)
	}
}

// TestRetainedBytesFollowsLiveState: over 10⁶ arrivals through a sliding
// window of keys, each closed by a constant punctuation, what the state
// retains stays below what its peak live state needs plus one chunk of
// each kind, and does not grow over the second half.
func TestRetainedBytesFollowsLiveState(t *testing.T) {
	st := mkState(t, 64)
	const n, perKey, window = 1_000_000, 4, 512
	peak, half := 0, 0
	slideKeys(t, st, n, perKey, window, func(i int) {
		peak = max(peak, st.Stats().MemTuples)
		if i == n/2 {
			half = st.RetainedBytes()
		}
	})
	chunks := func(live, per, size int) int { return ((live+per-1)/per + 1) * per * size }
	slots := 0
	for i := range st.bkts {
		slots += cap(st.bkts[i].mem.slots) * 8
	}
	bound := chunks(peak, storedChunk, int(unsafe.Sizeof(StoredTuple{}))+8) + // a wrapper and its free-list slot
		chunks(peak, slabChunk, int(unsafe.Sizeof(groupNode{}))) +
		chunks(window, slabChunk, int(unsafe.Sizeof(group{}))) + slots
	got := st.RetainedBytes()
	t.Logf("retained %d B at the end, %d B at half-time; peak %d live tuples, bound %d B", got, half, peak, bound)
	if got > bound {
		t.Errorf("state retains %d B, its peak of %d tuples needs at most %d", got, peak, bound)
	}
	if got > half {
		t.Errorf("retained bytes grew over the second half: %d → %d", half, got)
	}
}

// TestHeldWrappersWaitInLimbo: a wrapper freed while the state is held
// keeps its contents and is not handed out again until Unhold; then it is
// recycled (zeroed; poisoned under the pjoin_poison tag, `make
// oracle-poison`) and the next insert reuses it. A scan's wrappers are
// recycled the same way when the next scan opens.
func TestHeldWrappersWaitInLimbo(t *testing.T) {
	st := mkState(t, 1)
	a, _ := st.Insert(tup(t, 1, 1))
	st.Hold()
	closeKey(st, 1)
	b, _ := st.Insert(tup(t, 2, 2))
	if a == b || a.T == nil || !a.T.Values[0].Equal(value.Int(1)) || a.ATS != 1 {
		t.Fatalf("a wrapper freed while held was changed or reused: %+v", *a)
	}
	st.Unhold()
	if a.T != recycled.T || a.ATS != recycled.ATS {
		t.Fatalf("after Unhold the freed wrapper holds %+v, want the poison", *a)
	}
	if c, _ := st.Insert(tup(t, 3, 3)); c != a {
		t.Error("the next insert did not reuse the wrapper freed while held")
	}

	if _, err := st.SpillBucket(0, 10); err != nil {
		t.Fatal(err)
	}
	ds, _ := st.OpenDiskScan(0)
	got, _, err := ds.Next(0, nil)
	if err != nil || len(got) != 2 {
		t.Fatalf("scan read %d records, err %v", len(got), err)
	}
	if err := st.FinishDiskScan(ds, nil, false); err != nil {
		t.Fatal(err)
	}
	if _, err := st.OpenDiskScan(0); err != nil {
		t.Fatal(err)
	}
	if got[0].T != recycled.T || got[1].DTS != recycled.DTS {
		t.Errorf("a scan wrapper held across the next open reads %+v, want the poison", *got[0])
	}
}
