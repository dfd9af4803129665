package joinbase

import (
	"testing"

	"pjoin/internal/store"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

var (
	scA = stream.MustSchema("A",
		stream.Field{Name: "k", Kind: value.KindInt},
		stream.Field{Name: "p", Kind: value.KindString},
	)
	scB = stream.MustSchema("B",
		stream.Field{Name: "k", Kind: value.KindInt},
		stream.Field{Name: "q", Kind: value.KindString},
	)
)

func newBase(t *testing.T, nbuckets int) (*Base, *[]*stream.Tuple) {
	t.Helper()
	stA, err := store.NewState("A", 0, nbuckets, store.NewMemSpill())
	if err != nil {
		t.Fatal(err)
	}
	stB, err := store.NewState("B", 0, nbuckets, store.NewMemSpill())
	if err != nil {
		t.Fatal(err)
	}
	out, err := scA.Concat("out", scB)
	if err != nil {
		t.Fatal(err)
	}
	results := &[]*stream.Tuple{}
	b, err := New(stA, stB, out, func(tp *stream.Tuple) error {
		*results = append(*results, tp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, results
}

// runPass runs one whole disk pass at time now through the pass driver,
// the way the operators do at DiskChunkBytes 0.
func runPass(b *Base, now stream.Time, hooks PassHooks) error {
	return NewPassDriver(b, nil, 0, hooks, nil).Activate(now)
}

func aTup(k int64, ts stream.Time) *stream.Tuple {
	return stream.MustTuple(scA, ts, value.Int(k), value.Str("a"))
}

func bTup(k int64, ts stream.Time) *stream.Tuple {
	return stream.MustTuple(scB, ts, value.Int(k), value.Str("b"))
}

func TestNewValidation(t *testing.T) {
	stA, _ := store.NewState("A", 0, 4, store.NewMemSpill())
	stB, _ := store.NewState("B", 0, 8, store.NewMemSpill())
	if _, err := New(nil, stB, nil, func(*stream.Tuple) error { return nil }); err == nil {
		t.Error("nil state should error")
	}
	if _, err := New(stA, stB, nil, func(*stream.Tuple) error { return nil }); err == nil {
		t.Error("bucket count mismatch should error")
	}
	stB2, _ := store.NewState("B", 0, 4, store.NewMemSpill())
	if _, err := New(stA, stB2, nil, nil); err == nil {
		t.Error("nil emit should error")
	}
}

func TestProbeOppositeOrientation(t *testing.T) {
	b, results := newBase(t, 4)
	b.States[0].Insert(aTup(1, 1))
	// A B-side arrival probes side 0: result must be A-values first.
	n, err := b.ProbeOpposite(1, bTup(1, 2))
	if err != nil || n != 1 {
		t.Fatalf("probe = %d, %v", n, err)
	}
	r := (*results)[0]
	if !r.Values[1].Equal(value.Str("a")) || !r.Values[3].Equal(value.Str("b")) {
		t.Errorf("orientation wrong: %v", r)
	}
	// An A-side arrival probing side 1 keeps the same orientation.
	b.States[1].Insert(bTup(2, 3))
	if _, err := b.ProbeOpposite(0, aTup(2, 4)); err != nil {
		t.Fatal(err)
	}
	r = (*results)[1]
	if !r.Values[1].Equal(value.Str("a")) || !r.Values[3].Equal(value.Str("b")) {
		t.Errorf("orientation wrong for A arrival: %v", r)
	}
	if b.M.TuplesOut != 2 {
		t.Errorf("TuplesOut = %d", b.M.TuplesOut)
	}
}

func TestRelocateSpillsUntilUnderThreshold(t *testing.T) {
	b, _ := newBase(t, 4)
	for i := int64(0); i < 40; i++ {
		b.States[i%2].Insert(aTupOrB(int(i%2), i, stream.Time(i+1)))
	}
	total := b.States[0].MemBytes() + b.States[1].MemBytes()
	if err := b.Relocate(100, total/2, nil); err != nil {
		t.Fatal(err)
	}
	if got := b.States[0].MemBytes() + b.States[1].MemBytes(); got >= total/2 {
		t.Errorf("memory %d still >= threshold %d", got, total/2)
	}
	if b.M.Relocations == 0 || b.M.SpilledTuples == 0 {
		t.Error("relocation metrics not recorded")
	}
	// Disabled threshold is a no-op.
	before := b.M.Relocations
	if err := b.Relocate(200, 0, nil); err != nil {
		t.Fatal(err)
	}
	if b.M.Relocations != before {
		t.Error("Relocate with zero threshold spilled")
	}
}

func aTupOrB(side int, k int64, ts stream.Time) *stream.Tuple {
	if side == 0 {
		return aTup(k, ts)
	}
	return bTup(k, ts)
}

func TestRelocateBeforeSpillHook(t *testing.T) {
	b, _ := newBase(t, 2)
	for i := int64(0); i < 10; i++ {
		b.States[0].Insert(aTup(i, stream.Time(i+1)))
	}
	var calls [][2]int
	err := b.Relocate(50, 1, func(side, bucket int) error {
		calls = append(calls, [2]int{side, bucket})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Error("beforeSpill hook never invoked")
	}
}

func TestDiskPassJoinsSpilledAgainstLater(t *testing.T) {
	b, results := newBase(t, 1)
	// a1 arrives and is spilled before b1 arrives.
	b.States[0].Insert(aTup(1, 1))
	if _, err := b.States[0].SpillBucket(0, 2); err != nil {
		t.Fatal(err)
	}
	// b1 arrives at t=3: probes memory, finds nothing, inserts.
	if _, err := b.ProbeOpposite(1, bTup(1, 3)); err != nil {
		t.Fatal(err)
	}
	b.States[1].Insert(bTup(1, 3))
	if len(*results) != 0 {
		t.Fatal("memory probe should have missed the spilled tuple")
	}
	if !b.NeedsPass() {
		t.Fatal("NeedsPass should be true with disk data")
	}
	if err := runPass(b, 10, PassHooks{}); err != nil {
		t.Fatal(err)
	}
	if len(*results) != 1 {
		t.Fatalf("disk pass produced %d results, want 1", len(*results))
	}
	// A second pass must not duplicate the pair.
	if err := runPass(b, 20, PassHooks{}); err != nil {
		t.Fatal(err)
	}
	if len(*results) != 1 {
		t.Errorf("second pass duplicated: %d results", len(*results))
	}
}

func TestDiskPassSkipsMemoryJoinedPairs(t *testing.T) {
	b, results := newBase(t, 1)
	// a1 and b1 overlap in memory: the memory join pairs them.
	b.States[0].Insert(aTup(1, 1))
	if _, err := b.ProbeOpposite(0, aTup(1, 1)); err != nil { // simulate a1's arrival probe (no match)
		t.Fatal(err)
	}
	if _, err := b.ProbeOpposite(1, bTup(1, 2)); err != nil {
		t.Fatal(err)
	}
	b.States[1].Insert(bTup(1, 2))
	if len(*results) != 1 {
		t.Fatalf("memory join results = %d", len(*results))
	}
	// Later, a1 spills. The disk pass must NOT rejoin the pair.
	if _, err := b.States[0].SpillBucket(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := runPass(b, 10, PassHooks{}); err != nil {
		t.Fatal(err)
	}
	if len(*results) != 1 {
		t.Errorf("disk pass duplicated a memory-joined pair: %d results", len(*results))
	}
}

func TestDiskPassBothSidesSpilled(t *testing.T) {
	b, results := newBase(t, 1)
	// a1 spills at t=2; b1 arrives at t=3 and spills at t=4.
	b.States[0].Insert(aTup(1, 1))
	b.States[0].SpillBucket(0, 2)
	b.States[1].Insert(bTup(1, 3))
	b.States[1].SpillBucket(0, 4)
	if err := runPass(b, 10, PassHooks{}); err != nil {
		t.Fatal(err)
	}
	if len(*results) != 1 {
		t.Fatalf("disk-disk pair: %d results, want 1", len(*results))
	}
	if err := runPass(b, 20, PassHooks{}); err != nil {
		t.Fatal(err)
	}
	if len(*results) != 1 {
		t.Errorf("disk-disk pair duplicated: %d", len(*results))
	}
}

func TestDiskPassIncrementalBetweenPasses(t *testing.T) {
	b, results := newBase(t, 1)
	b.States[0].Insert(aTup(1, 1))
	b.States[0].SpillBucket(0, 2)
	// First pass with no opposite tuples: nothing.
	if err := runPass(b, 5, PassHooks{}); err != nil {
		t.Fatal(err)
	}
	if len(*results) != 0 {
		t.Fatal("nothing to join yet")
	}
	// b1 arrives after the first pass.
	b.States[1].Insert(bTup(1, 7))
	if err := runPass(b, 10, PassHooks{}); err != nil {
		t.Fatal(err)
	}
	if len(*results) != 1 {
		t.Fatalf("pair arriving between passes: %d results", len(*results))
	}
}

func TestDiskPassHooks(t *testing.T) {
	b, _ := newBase(t, 1)
	b.States[0].Insert(aTup(1, 1))
	b.States[0].Insert(aTup(2, 2))
	b.States[0].SpillBucket(0, 3)

	var indexed, discarded []int64
	droppedBytes := 0
	hooks := PassHooks{
		IndexDisk: func(side int, s *store.StoredTuple) {
			indexed = append(indexed, s.T.Values[0].IntVal())
		},
		DropDisk: func(side int, key value.Value, size int) bool {
			if key.IntVal() != 1 {
				return false
			}
			droppedBytes += size
			return true
		},
		OnDiscard: func(side int, s *store.StoredTuple) {
			discarded = append(discarded, s.T.Values[0].IntVal())
		},
	}
	diskBefore := b.States[0].Stats().DiskBytes
	if err := runPass(b, 10, hooks); err != nil {
		t.Fatal(err)
	}
	if len(indexed) != 2 {
		t.Errorf("IndexDisk saw %d tuples", len(indexed))
	}
	if len(discarded) != 1 || discarded[0] != 1 {
		t.Errorf("OnDiscard = %v", discarded)
	}
	if got := b.States[0].Stats().DiskTuples; got != 1 {
		t.Errorf("disk tuples after drop = %d", got)
	}
	if lost := diskBefore - b.States[0].Stats().DiskBytes; lost != int64(droppedBytes) {
		t.Errorf("the partition lost %d bytes, DropDisk was told %d", lost, droppedBytes)
	}
	if b.M.Purged != 1 {
		t.Errorf("Purged = %d", b.M.Purged)
	}
}

func TestDiskPassClearsPurgeBuffers(t *testing.T) {
	b, results := newBase(t, 1)
	// b1 spilled; a1 arrives later, then is purged into the buffer.
	b.States[1].Insert(bTup(1, 1))
	b.States[1].SpillBucket(0, 2)
	a := aTup(1, 3)
	sd, _ := b.States[0].Insert(a)
	removed := b.States[0].FilterMem(0, func(x *store.StoredTuple) bool { return x == sd })
	if len(removed) != 1 {
		t.Fatal("setup failed")
	}
	b.States[0].AddToPurgeBuffer(0, sd, 4)

	dropped := 0
	err := runPass(b, 10, PassHooks{
		OnDiscard: func(int, *store.StoredTuple) { dropped++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	// The left-over join a1 x b1 happened, then a1 was discarded.
	if len(*results) != 1 {
		t.Errorf("purge-buffer left-over join missing: %d results", len(*results))
	}
	if dropped != 1 {
		t.Errorf("OnDiscard calls = %d", dropped)
	}
	if b.States[0].Stats().PurgeTuples != 0 {
		t.Error("purge buffer not cleared")
	}
	if b.NeedsPass() != true { // B still has disk data
		t.Error("NeedsPass should remain true while disk data exists")
	}
}

func TestNeedsPassFalseWhenClean(t *testing.T) {
	b, _ := newBase(t, 2)
	if b.NeedsPass() {
		t.Error("fresh base needs no pass")
	}
	b.States[0].Insert(aTup(1, 1))
	if b.NeedsPass() {
		t.Error("memory-only state needs no pass")
	}
}

func TestReachable(t *testing.T) {
	mk := func(ats, dts stream.Time) *store.StoredTuple {
		return &store.StoredTuple{T: aTup(1, 0), ATS: ats, DTS: dts} // the field, not the tuple's Ts
	}
	cases := []struct {
		name string
		x, y *store.StoredTuple
		t    stream.Time
		want bool
	}{
		{"disk vs later mem", mk(1, 5), mk(8, store.InMemory), 10, true},
		{"disk vs not yet arrived", mk(1, 5), mk(20, store.InMemory), 10, false},
		{"both mem", mk(1, store.InMemory), mk(2, store.InMemory), 10, false},
		{"both disk", mk(1, 3), mk(5, 8), 10, true},
		{"y disk x mem", mk(9, store.InMemory), mk(1, 4), 10, true},
	}
	for _, c := range cases {
		if got := reachable(c.x, c.y, c.t); got != c.want {
			t.Errorf("%s: reachable = %v, want %v", c.name, got, c.want)
		}
	}
}
