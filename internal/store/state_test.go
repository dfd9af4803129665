package store

import (
	"encoding/hex"
	"testing"
	"testing/quick"

	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

var testSchema = stream.MustSchema("S",
	stream.Field{Name: "k", Kind: value.KindInt},
	stream.Field{Name: "payload", Kind: value.KindString},
)

func mkState(t *testing.T, nbuckets int) *State {
	t.Helper()
	st, err := NewState("A", 0, nbuckets, NewMemSpill())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func tup(t *testing.T, key int64, ts stream.Time) *stream.Tuple {
	t.Helper()
	return stream.MustTuple(testSchema, ts, value.Int(key), value.Str("p"))
}

func TestNewStateValidation(t *testing.T) {
	if _, err := NewState("A", -1, 4, NewMemSpill()); err == nil {
		t.Error("negative attr should error")
	}
	if _, err := NewState("A", 0, 0, NewMemSpill()); err == nil {
		t.Error("zero buckets should error")
	}
	if _, err := NewState("A", 0, 4, nil); err == nil {
		t.Error("nil spill should error")
	}
}

func TestInsertAndProbe(t *testing.T) {
	st := mkState(t, 8)
	for i := int64(0); i < 20; i++ {
		if _, err := st.Insert(tup(t, i%5, stream.Time(i))); err != nil {
			t.Fatal(err)
		}
	}
	matches, examined := st.ProbeMem(value.Int(3), nil)
	if len(matches) != 4 {
		t.Fatalf("probe(3) found %d matches, want 4", len(matches))
	}
	if examined < len(matches) {
		t.Errorf("examined %d < matches %d", examined, len(matches))
	}
	// Arrival order preserved.
	for i := 1; i < len(matches); i++ {
		if matches[i].ATS < matches[i-1].ATS {
			t.Error("probe results out of arrival order")
		}
	}
	if got := st.Stats(); got.MemTuples != 20 || got.TotalTuples() != 20 {
		t.Errorf("stats = %+v", got)
	}
	if st.MemBytes() <= 0 {
		t.Error("MemBytes should be positive")
	}
}

func TestInsertTooNarrowTuple(t *testing.T) {
	st, err := NewState("A", 5, 4, NewMemSpill())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Insert(tup(t, 1, 0)); err == nil {
		t.Error("tuple narrower than join attr should error")
	}
}

func TestProbeMissesOtherKeys(t *testing.T) {
	st := mkState(t, 1) // single bucket: all keys collide
	st.Insert(tup(t, 1, 0))
	st.Insert(tup(t, 2, 1))
	matches, examined := st.ProbeMem(value.Int(1), nil)
	if len(matches) != 1 {
		t.Errorf("hash collision leaked wrong keys: %d matches", len(matches))
	}
	// Indexed probing resolves the key's group: only the match examined.
	if examined != 1 {
		t.Errorf("examined = %d, want 1 (the matching group)", examined)
	}

	// The reference walk agrees on the match and visits the whole bucket.
	ref, walked := walkProbe(st, value.Int(1), nil)
	if len(ref) != 1 || ref[0] != matches[0] {
		t.Errorf("walk: %d matches, want the probe's one", len(ref))
	}
	if walked != 2 {
		t.Errorf("walk visited %d, want full bucket 2", walked)
	}
}

func TestStoredTupleOverlaps(t *testing.T) {
	// The tuples' own Ts (0) is not their arrival: ATS is.
	a := &StoredTuple{T: tup(t, 1, 0), ATS: 10, DTS: 20}
	b := &StoredTuple{T: tup(t, 1, 0), ATS: 15, DTS: 30}
	c := &StoredTuple{T: tup(t, 1, 0), ATS: 25, DTS: InMemory}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a and b overlap")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Error("a ended before c arrived")
	}
	if !b.Overlaps(c) || !c.Overlaps(b) {
		t.Error("b was resident when c arrived")
	}
}

func TestFilterMem(t *testing.T) {
	st := mkState(t, 1)
	for i := int64(0); i < 10; i++ {
		st.Insert(tup(t, i, stream.Time(i)))
	}
	removed := st.FilterMem(0, func(s *StoredTuple) bool {
		return s.T.Values[0].IntVal()%2 == 0
	})
	if len(removed) != 5 {
		t.Fatalf("removed %d, want 5", len(removed))
	}
	if got := st.Stats().MemTuples; got != 5 {
		t.Errorf("MemTuples = %d", got)
	}
	matches, _ := st.ProbeMem(value.Int(2), nil)
	if len(matches) != 0 {
		t.Error("filtered tuple still probeable")
	}
	matches, _ = st.ProbeMem(value.Int(3), nil)
	if len(matches) != 1 {
		t.Error("kept tuple lost")
	}
	// Byte accounting returns to zero when everything is removed.
	st.FilterMem(0, func(*StoredTuple) bool { return true })
	if got := st.Stats(); got.MemTuples != 0 || got.MemBytes != 0 {
		t.Errorf("after removing all: %+v", got)
	}
}

// TestTakeKeyGroupScratch pins the lifetime of what TakeKeyGroup
// returns: each call hands out the state's one scratch slice, right for
// its own key and in arrival order, and a group taken earlier survives
// only as the copy its caller made.
func TestTakeKeyGroupScratch(t *testing.T) {
	st := mkState(t, 2)
	const keys, per = 5, 4
	fill := func() {
		for r := 0; r < per; r++ {
			for k := int64(0); k < keys; k++ {
				st.Insert(tup(t, k, stream.Time(r*keys+int(k)+1)))
			}
		}
	}
	fill()
	var kept [][]*StoredTuple
	for k := int64(0); k < keys; k++ {
		bucket, removed := st.TakeKeyGroup(value.Int(k))
		if bucket != st.BucketOf(value.Int(k)) || len(removed) != per {
			t.Fatalf("key %d: bucket %d, %d tuples", k, bucket, len(removed))
		}
		for r, s := range removed {
			if s.T.Values[0].IntVal() != k || s.ATS != stream.Time(r*keys+int(k)+1) {
				t.Fatalf("key %d: tuple %d is %s", k, r, s.T)
			}
		}
		kept = append(kept, append([]*StoredTuple(nil), removed...))
	}
	for k, g := range kept {
		for _, s := range g {
			if s.T.Values[0].IntVal() != int64(k) {
				t.Fatalf("copied group %d holds key %d", k, s.T.Values[0].IntVal())
			}
		}
	}
	if _, removed := st.TakeKeyGroup(value.Int(99)); removed != nil {
		t.Errorf("absent key returned %d tuples", len(removed))
	}
	if got := st.Stats(); got.MemTuples != 0 || got.MemGroups != 0 || got.MemBytes != 0 {
		t.Errorf("after taking every group: %+v", got)
	}

	// Once the scratch has grown to the largest group, taking groups
	// allocates nothing.
	fill()
	next := int64(0)
	if allocs := testing.AllocsPerRun(keys-1, func() {
		if _, removed := st.TakeKeyGroup(value.Int(next)); len(removed) != per {
			t.Fatalf("key %d: %d tuples", next, len(removed))
		}
		next++
	}); allocs != 0 {
		t.Errorf("TakeKeyGroup allocates %.1f objects per call, want 0", allocs)
	}
}

func TestPurgeBuffer(t *testing.T) {
	st := mkState(t, 2)
	s1, _ := st.Insert(tup(t, 0, 5))
	removed := st.FilterMem(st.BucketOf(value.Int(0)), func(*StoredTuple) bool { return true })
	if len(removed) != 1 || removed[0] != s1 {
		t.Fatal("FilterMem should return the tuple")
	}
	bi := st.BucketOf(value.Int(0))
	st.AddToPurgeBuffer(bi, s1, 42)
	if s1.DTS != 42 {
		t.Errorf("purge buffer should stamp DTS, got %d", s1.DTS)
	}
	if got := st.Stats(); got.PurgeTuples != 1 || got.TotalTuples() != 1 {
		t.Errorf("stats = %+v", got)
	}
	taken := st.TakePurgeBuffer(bi, nil)
	if len(taken) != 1 || taken[0] != s1 {
		t.Error("TakePurgeBuffer wrong contents")
	}
	if got := st.Stats(); got.PurgeTuples != 0 || got.TotalTuples() != 0 {
		t.Errorf("stats after take = %+v", got)
	}
	if got := st.TakePurgeBuffer(bi, nil); len(got) != 0 {
		t.Error("second take should be empty")
	}
	// The bucket keeps its buffer, emptied and cleared, and a take into a
	// reused slice allocates nothing.
	if pb := st.Bucket(bi).PurgeBuf; cap(pb) == 0 || pb[:cap(pb)][0] != nil {
		t.Errorf("taken purge buffer: cap %d, pins %v", cap(pb), pb[:cap(pb)])
	}
	if allocs := testing.AllocsPerRun(10, func() {
		st.AddToPurgeBuffer(bi, s1, 42)
		if taken = st.TakePurgeBuffer(bi, taken[:0]); len(taken) != 1 {
			t.Fatalf("took %d tuples, want 1", len(taken))
		}
	}); allocs != 0 {
		t.Errorf("purge and take allocate %.1f objects, want 0", allocs)
	}
}

func TestSpillAndReadDisk(t *testing.T) {
	st := mkState(t, 1)
	var pids []punct.PID
	for i := int64(0); i < 5; i++ {
		s, _ := st.Insert(tup(t, i, stream.Time(i)))
		s.PID = punct.PID(i + 1)
		pids = append(pids, s.PID)
	}
	n, err := st.SpillBucket(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("spilled %d", n)
	}
	got := st.Stats()
	if got.MemTuples != 0 || got.MemBytes != 0 {
		t.Errorf("memory not emptied: %+v", got)
	}
	if got.DiskTuples != 5 || got.DiskBytes <= 0 {
		t.Errorf("disk accounting: %+v", got)
	}
	if !st.HasDisk(0) || !st.AnyDisk() {
		t.Error("HasDisk/AnyDisk false after spill")
	}
	back := readDisk(t, st, 0)
	if len(back) != 5 {
		t.Fatalf("read %d tuples", len(back))
	}
	for i, s := range back {
		if s.DTS != 100 {
			t.Errorf("tuple %d DTS = %d, want spill time 100", i, s.DTS)
		}
		if s.PID != pids[i] {
			t.Errorf("tuple %d pid = %d, want %d", i, s.PID, pids[i])
		}
		if s.T.Values[0].IntVal() != int64(i) {
			t.Errorf("tuple %d key = %v", i, s.T.Values[0])
		}
	}
}

func TestSpillEmptyBucketNoop(t *testing.T) {
	st := mkState(t, 2)
	n, err := st.SpillBucket(1, 50)
	if err != nil || n != 0 {
		t.Errorf("spill empty = %d, %v", n, err)
	}
	if st.AnyDisk() {
		t.Error("no disk data expected")
	}
}

func TestMultipleSpillsAccumulate(t *testing.T) {
	st := mkState(t, 1)
	st.Insert(tup(t, 1, 1))
	st.SpillBucket(0, 10)
	st.Insert(tup(t, 2, 11))
	st.Insert(tup(t, 3, 12))
	st.SpillBucket(0, 20)
	back := readDisk(t, st, 0)
	if len(back) != 3 {
		t.Fatalf("disk holds %d tuples", len(back))
	}
	if back[0].DTS != 10 || back[1].DTS != 20 || back[2].DTS != 20 {
		t.Errorf("DTS stamps wrong: %d %d %d", back[0].DTS, back[1].DTS, back[2].DTS)
	}
}

func TestRewriteDisk(t *testing.T) {
	st := mkState(t, 1)
	for i := int64(0); i < 4; i++ {
		st.Insert(tup(t, i, stream.Time(i)))
	}
	st.SpillBucket(0, 10)
	// Keep only odd keys.
	rewriteDisk(t, st, 0, func(_ int, s *StoredTuple) bool { return s.T.Values[0].IntVal()%2 == 1 })
	if got := st.Stats().DiskTuples; got != 2 {
		t.Errorf("DiskTuples = %d", got)
	}
	back := readDisk(t, st, 0)
	if len(back) != 2 || back[0].T.Values[0].IntVal() != 1 || back[1].T.Values[0].IntVal() != 3 {
		t.Errorf("rewrite contents wrong: %v", back)
	}
	// Rewrite to empty.
	rewriteDisk(t, st, 0, nil)
	if st.AnyDisk() || st.Stats().DiskBytes != 0 {
		t.Errorf("disk not empty after rewrite: %+v", st.Stats())
	}
	if got := readDisk(t, st, 0); got != nil {
		t.Error("disk read after empty rewrite should be nil")
	}
}

func TestLargestMemBucket(t *testing.T) {
	st := mkState(t, 16)
	if got := st.LargestMemBucket(); got != -1 {
		t.Errorf("empty state largest = %d", got)
	}
	// Insert many copies of one key so one bucket clearly dominates.
	for i := 0; i < 10; i++ {
		st.Insert(tup(t, 77, stream.Time(i)))
	}
	st.Insert(tup(t, 3, 100))
	want := st.BucketOf(value.Int(77))
	if got := st.LargestMemBucket(); got != want {
		t.Errorf("largest = %d, want %d", got, want)
	}
}

func TestBucketOfStable(t *testing.T) {
	st := mkState(t, 7)
	f := func(k int64) bool {
		b := st.BucketOf(value.Int(k))
		return b >= 0 && b < 7 && b == st.BucketOf(value.Int(k))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStoredRoundTripQuick(t *testing.T) {
	f := func(key int64, pid uint32, ats, dts int64) bool {
		s := &StoredTuple{
			T:   stream.MustTuple(testSchema, stream.Time(key), value.Int(key), value.Str("x")),
			PID: punct.PID(pid),
			ATS: stream.Time(ats),
			DTS: stream.Time(dts),
		}
		enc := appendStored(nil, s)
		got, k, n, err := decodeStored(t, nil, enc)
		if err != nil || n != len(enc) {
			return false
		}
		// The record carries the arrival, not the tuple's own Ts.
		return got.PID == s.PID && got.ATS == s.ATS && got.DTS == s.DTS && got.T.Ts == s.ATS &&
			got.T.Values[0].Equal(s.T.Values[0]) && k.Equal(s.T.Values[0])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSpillKeepsATS: a spill record carries the arrival time in its
// tuple's Ts slot, so the bytes are those a state wrote when the stored
// tuple's own Ts was its arrival (golden, taken from that encoding), and a
// scan reads ATS back from the slot. The tuples' own Ts (0) is not their
// arrival, and does not reach the disk.
func TestSpillKeepsATS(t *testing.T) {
	const golden = "24ac0280841e00000000000287d6120000000000012a000000000000000306676f6c64656e" +
		"1e0080841e00000000000237d8120000000000010700000000000000030178"
	spill := NewMemSpill()
	st, err := NewState("A", 0, 1, spill)
	if err != nil {
		t.Fatal(err)
	}
	s, err := st.InsertAt(stream.MustTuple(testSchema, 0, value.Int(42), value.Str("golden")), 1234567)
	if err != nil {
		t.Fatal(err)
	}
	s.PID = 300
	if _, err := st.InsertAt(stream.MustTuple(testSchema, 0, value.Int(7), value.Str("x")), 1234999); err != nil {
		t.Fatal(err)
	}
	if _, err := st.SpillBucket(0, 2000000); err != nil {
		t.Fatal(err)
	}
	raw, err := readPart(spill, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(raw); got != golden {
		t.Errorf("spill record\n %s, want\n %s", got, golden)
	}
	back := readDisk(t, st, 0)
	want := []struct {
		key int64
		pid punct.PID
		ats stream.Time
	}{{42, 300, 1234567}, {7, punct.NoPID, 1234999}}
	if len(back) != len(want) {
		t.Fatalf("scan read %d tuples, want %d", len(back), len(want))
	}
	for i, w := range want {
		if g := back[i]; g.T.Values[0].IntVal() != w.key || g.PID != w.pid || g.ATS != w.ats || g.T.Ts != w.ats || g.DTS != 2000000 {
			t.Errorf("tuple %d read back as %+v %v, want key %d pid %d ATS %d DTS 2000000", i, g, g.T, w.key, w.pid, w.ats)
		}
	}
}

// TestParkStoresArrival: a parked arrival goes straight to the purge
// buffer with the empty residence interval [ats, ats), no pid, and the
// tuple it was handed.
func TestParkStoresArrival(t *testing.T) {
	st := mkState(t, 4)
	tu := tup(t, 3, 0)
	st.Park(st.BucketOf(value.Int(3)), tu, 9)
	buf := st.Bucket(st.BucketOf(value.Int(3))).PurgeBuf
	if len(buf) != 1 || buf[0].T != tu || buf[0].ATS != 9 || buf[0].DTS != 9 || buf[0].PID != punct.NoPID {
		t.Fatalf("purge buffer %+v, want the tuple at [9, 9) without a pid", buf)
	}
	if s := st.Stats(); s.PurgeTuples != 1 || s.MemTuples != 0 {
		t.Errorf("stats %+v, want one purge-buffer tuple and none in memory", s)
	}
}

func TestDecodeStoredErrors(t *testing.T) {
	good := appendStored(nil, &StoredTuple{T: tup(t, 1, 2), PID: 3, DTS: 4})
	bad := [][]byte{nil, {0x80}, good[:5], good[:len(good)-1]}
	for i, b := range bad {
		if s, _, _, err := decodeStored(t, nil, b); err == nil {
			t.Errorf("case %d: decodeStored succeeded: %v", i, s)
		}
	}
	// A record whose tuple has no value at the state's key position.
	var heap scanArena
	if r, _, err := heap.parseStored(good, 2); err == nil {
		t.Errorf("parsing a 2-value record to attribute 2 succeeded: %+v", r)
	}
}

// Spilling, probing, and accounting must stay consistent under a random
// interleaving of operations.
func TestStateAccountingInvariant(t *testing.T) {
	st := mkState(t, 4)
	inserted, spilled, purged := 0, 0, 0
	for i := int64(0); i < 200; i++ {
		st.Insert(tup(t, i%17, stream.Time(i)))
		inserted++
		switch i % 23 {
		case 7:
			if b := st.LargestMemBucket(); b >= 0 {
				n, err := st.SpillBucket(b, stream.Time(i))
				if err != nil {
					t.Fatal(err)
				}
				spilled += n
			}
		case 15:
			for b := 0; b < st.NumBuckets(); b++ {
				purged += len(st.FilterMem(b, func(s *StoredTuple) bool {
					return s.T.Values[0].IntVal() == i%17
				}))
			}
		}
	}
	got := st.Stats()
	if got.MemTuples+got.DiskTuples != inserted-purged {
		t.Errorf("accounting: mem %d + disk %d != inserted %d - purged %d",
			got.MemTuples, got.DiskTuples, inserted, purged)
	}
	if got.DiskTuples != spilled {
		t.Errorf("DiskTuples = %d, spilled %d", got.DiskTuples, spilled)
	}
	if got.MemBytes < 0 || got.DiskBytes < 0 {
		t.Errorf("negative byte accounting: %+v", got)
	}
}
