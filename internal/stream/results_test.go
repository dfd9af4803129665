package stream

import (
	"fmt"
	"testing"
	"unsafe"

	"pjoin/internal/punct"
	"pjoin/internal/value"
)

// pairOf returns a joining pair; c is the later of the two.
func pairOf(k int64) (a, c *Tuple) {
	a = &Tuple{Values: []value.Value{value.Int(k), value.Str("a")}, Ts: Time(10 + k), Span: 7}
	c = &Tuple{Values: []value.Value{value.Int(k), value.Str("c")}, Ts: Time(20 + k), Span: 3}
	return a, c
}

func sameTuple(t *testing.T, what string, got, want *Tuple) {
	t.Helper()
	if got.Ts != want.Ts || got.Span != want.Span || len(got.Values) != len(want.Values) {
		t.Fatalf("%s: %v span %d, want %v span %d", what, got, got.Span, want, want.Span)
	}
	for i := range want.Values {
		if !got.Values[i].Equal(want.Values[i]) {
			t.Fatalf("%s: value %d is %v, want %v", what, i, got.Values[i], want.Values[i])
		}
	}
}

// TestItemSizeUnchangedByBorrowed: the lifetime mark sits in the padding
// after Kind, and a punctuation is a pointer and its window: 16 bytes, an
// Item 48. A value is a pointer and 8 bytes, 16, and a tuple header 40:
// the sizes the chunk arithmetic in results.go and encode.go is done in.
func TestItemSizeUnchangedByBorrowed(t *testing.T) {
	type before struct {
		Kind  ItemKind
		Tuple *Tuple
		Punct struct {
			base          uintptr
			n, off, width int16
		}
		Ts   Time
		Span uint64
	}
	if got, want := unsafe.Sizeof(Item{}), unsafe.Sizeof(before{}); got != want || got != 48 {
		t.Errorf("Item is %d bytes, %d without the mark, want 48", got, want)
	}
	if got := unsafe.Sizeof(punct.Punctuation{}); got != 16 {
		t.Errorf("punct.Punctuation is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(value.Value{}); got != 16 {
		t.Errorf("value.Value is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(Tuple{}); got != 40 {
		t.Errorf("Tuple is %d bytes, want 40", got)
	}
}

// TestSlabJoinIsFillJoin: a result built in a slab, a holder's or a
// batch's, is the tuple Tuple.Join builds, and carries the time it is
// built at, whatever its partners' own Ts.
func TestSlabJoinIsFillJoin(t *testing.T) {
	a, c := pairOf(1)
	var own ResultSlab
	sameTuple(t, "holder's slab", own.Join(a, c, c.Ts), a.Join(c))
	if got := own.Join(a, c, 99); got.Ts != 99 || got.Span != JoinSpan(a, c) {
		t.Errorf("a result built at 99 reads Ts %d span %d", got.Ts, got.Span)
	}

	var pool BatchPool
	lane := pool.Lane(1)
	b := lane.Get(4)
	b.AppendJoin(a, c, c.Ts)
	it := b.Items[0]
	if it.Kind != KindTuple || !it.Borrowed || it.Ts != it.Tuple.Ts {
		t.Fatalf("AppendJoin item: %+v", it)
	}
	sameTuple(t, "batch slab", it.Tuple, a.Join(c))
	if sp := JoinSpan(a, c); sp != it.Tuple.Span {
		t.Errorf("JoinSpan = %d, the result carries %d", sp, it.Tuple.Span)
	}
	lane.Put(b)
}

// TestKeepCopiesOnlyBorrowed is the retention rule: an item that is not
// borrowed is kept as it is, for free; a borrowed one is copied into the
// keeper's slab, the copy is no longer borrowed, and it still reads the
// same after the batch that lent the original has been recycled — when
// the original reads as the zero header.
func TestKeepCopiesOnlyBorrowed(t *testing.T) {
	var keeper ResultSlab
	src := TupleItem(&Tuple{Values: []value.Value{value.Int(1)}, Ts: 5})
	if got := keeper.Keep(src); got.Tuple != src.Tuple || got.Borrowed {
		t.Fatalf("Keep of a source item returned %+v, want the item itself", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { src = keeper.Keep(src) }); allocs != 0 {
		t.Errorf("Keep of a source item allocates %.1f, want 0", allocs)
	}

	a, c := pairOf(2)
	want := a.Join(c)
	var pool BatchPool
	lane := pool.Lane(1)
	b := lane.Get(4)
	b.AppendJoin(a, c, c.Ts)
	lent := b.Items[0]
	kept := keeper.Keep(lent)
	if kept.Borrowed || kept.Tuple == lent.Tuple || kept.Ts != lent.Ts || kept.Kind != KindTuple {
		t.Fatalf("Keep of a borrowed item returned %+v (original %+v)", kept, lent)
	}
	if &kept.Tuple.Values[0] == &lent.Tuple.Values[0] {
		t.Fatal("the kept copy shares the batch's values")
	}
	lane.Put(b)
	if lent.Tuple.Values != nil || lent.Tuple.Ts != 0 || lent.Tuple.Span != 0 {
		t.Errorf("stale tuple after recycling reads %v span %d, want the zero header", lent.Tuple, lent.Tuple.Span)
	}
	sameTuple(t, "kept copy after recycling", kept.Tuple, want)

	// Punctuations and EOS are never borrowed.
	if got := keeper.Keep(EOSItem(9)); got.Tuple != nil || got.Borrowed {
		t.Errorf("Keep(EOS) = %+v", got)
	}
}

// TestBatchAppendRehomesBorrowed: forwarding a borrowed item into another
// batch copies the tuple into that batch's slab — still borrowed, now
// with the new batch's lifetime — and costs no allocation once the slab
// has grown; an item that is not borrowed is appended as it is.
func TestBatchAppendRehomesBorrowed(t *testing.T) {
	a, c := pairOf(3)
	want := a.Join(c)
	var pool BatchPool
	up, down := pool.Lane(1), pool.Lane(1)

	src := TupleItem(a)
	b1 := up.Get(4)
	b1.AppendJoin(a, c, c.Ts)
	b2 := down.Get(4)
	b2.Append(b1.Items[0])
	b2.Append(src)
	up.Put(b1)
	moved := b2.Items[0]
	if !moved.Borrowed {
		t.Fatal("re-homed item lost its mark")
	}
	sameTuple(t, "re-homed tuple after its first batch was recycled", moved.Tuple, want)
	if b2.Items[1].Tuple != a || b2.Items[1].Borrowed {
		t.Errorf("source item was not appended as it is: %+v", b2.Items[1])
	}
	down.Put(b2)
	if moved.Tuple.Values != nil {
		t.Error("re-homed tuple outlived its second batch")
	}

	if allocs := testing.AllocsPerRun(100, func() {
		b1 := up.Get(4)
		b1.AppendJoin(a, c, c.Ts)
		b2 := down.Get(4)
		b2.Append(b1.Items[0])
		up.Put(b1)
		down.Put(b2)
	}); allocs != 0 {
		t.Errorf("forwarding a borrowed item allocates %.1f per hop, want 0", allocs)
	}
}

// TestRewindLendsAndRefusesAHoldersSlab: a slab rewound before its first
// tuple is a recycled one — a second Rewind zeroes what it carved and the
// next tuple reuses the chunk — and rewinding a holder's own slab after
// it has carved panics, since its tuples belong to their holders.
func TestRewindLendsAndRefusesAHoldersSlab(t *testing.T) {
	a, c := pairOf(4)
	var lent ResultSlab
	lent.Rewind()
	r := lent.Join(a, c, c.Ts)
	lent.Rewind()
	if r.Values != nil || r.Ts != 0 || r.Span != 0 {
		t.Fatalf("a lent tuple reads %v after Rewind, want the zero header", r)
	}
	if again := lent.Join(a, c, c.Ts); again != r {
		t.Error("the first tuple after Rewind did not reuse the first slot")
	}
	var own ResultSlab
	own.Join(a, c, c.Ts)
	defer func() {
		if recover() == nil {
			t.Error("Rewind of a holder's slab that had carved did not panic")
		}
	}()
	own.Rewind()
}

// TestBatchSlabGrowsOnDemand: a batch's slab is never sized to the batch
// capacity up front — a batch that holds eight results retains one chunk
// of each kind — it grows to what the batch holds, and from then on
// filling the batch allocates nothing: held 8, then 256, the third use is
// free. Every result of every use is intact until its batch is recycled.
func TestBatchSlabGrowsOnDemand(t *testing.T) {
	a, c := pairOf(4)
	want := a.Join(c)
	var pool BatchPool
	lane := pool.Lane(1)
	fill := func(n int) *Batch {
		b := lane.Get(256)
		for i := 0; i < n; i++ {
			b.AppendJoin(a, c, c.Ts)
		}
		return b
	}
	b := fill(8)
	oneChunk := resultHdrs*tupleBytes + resultVals*valueBytes
	if got := b.res.RetainedBytes(); got != oneChunk {
		t.Errorf("a batch of 8 results retains %d B of slab, want one chunk of each kind, %d B", got, oneChunk)
	}
	lane.Put(b)
	b = fill(256)
	grown := b.res.RetainedBytes()
	if payload := 256 * (tupleBytes + 4*valueBytes); grown < payload || grown > payload+oneChunk {
		t.Errorf("a batch of 256 results retains %d B of slab", grown)
	}
	for i, it := range b.Items {
		sameTuple(t, "result", it.Tuple, want)
		if i > 0 && &it.Tuple.Values[0] == &b.Items[i-1].Tuple.Values[0] {
			t.Fatalf("results %d and %d share their values", i-1, i)
		}
	}
	lane.Put(b)
	if allocs := testing.AllocsPerRun(50, func() { lane.Put(fill(256)) }); allocs != 0 {
		t.Errorf("the third use of a grown batch allocates %.1f, want 0", allocs)
	}
	if b := fill(256); b.res.RetainedBytes() != grown {
		t.Errorf("slab kept growing: %d B, was %d", b.res.RetainedBytes(), grown)
	}
}

// TestLaneCountsInThePool: lane hits, fresh batches and drops on a full
// lane all count in the pool's two counters, so gets == puts says no
// batch is in flight whichever way the batches went.
func TestLaneCountsInThePool(t *testing.T) {
	var pool BatchPool
	lane := pool.Lane(1)
	b1, b2 := lane.Get(2), lane.Get(2) // both fresh: the lane is empty
	if b1 == b2 {
		t.Fatal("one batch handed out twice")
	}
	lane.Put(b1)
	lane.Put(b2) // the lane holds one: this one is dropped
	if got := lane.Get(2); got != b1 {
		t.Error("lane did not return the batch put first")
	}
	if got := lane.Get(2); got == b1 || got == b2 {
		t.Error("a dropped batch came back")
	}
	if gets, puts := pool.Stats(); gets != 4 || puts != 2 {
		t.Errorf("stats: %d gets, %d puts; want 4 and 2", gets, puts)
	}
}

// TestLaneHandsEachBatchToOneOwner runs the lane the way an edge does — a
// producer taking batches and sending them down a channel, a consumer
// receiving and returning them — with a lane shallower than the traffic,
// so hits, fresh batches and drops all happen, and checks that a batch is
// never in two hands (the race detector watches the unsynchronised mark),
// comes back empty, and that the pool's counters balance at the end.
func TestLaneHandsEachBatchToOneOwner(t *testing.T) {
	const rounds, depth = 20000, 4
	var pool BatchPool
	lane := pool.Lane(depth)
	ch := make(chan *Batch, 3*depth)
	done := make(chan error, 1)
	go func() {
		for b := range ch {
			if len(b.Items) != 1 || b.Items[0].Ts != 1 {
				done <- fmt.Errorf("consumer received %v", b.Items)
				return
			}
			b.Items[0].Ts = 2 // the consumer owns the batch now
			lane.Put(b)
		}
		done <- nil
	}()
	a, c := pairOf(6)
	for i := 0; i < rounds; i++ {
		b := lane.Get(1)
		if len(b.Items) != 0 {
			t.Fatalf("round %d: Get handed out a batch holding %v", i, b.Items)
		}
		b.AppendJoin(a, c, c.Ts)
		b.Items[0].Ts = 1
		ch <- b
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	gets, puts := pool.Stats()
	if gets != rounds || puts != rounds {
		t.Errorf("stats: %d gets, %d puts; want %d and %d", gets, puts, rounds, rounds)
	}
	if lane.dropped.Load() == 0 || lane.taken.Load() == 0 {
		t.Errorf("the run exercised %d lane hits and %d drops; want both", lane.taken.Load(), lane.dropped.Load())
	}
}
