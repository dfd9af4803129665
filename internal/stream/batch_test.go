package stream

import "testing"

// TestBatchPoolSteadyStateAllocs pins the property per-item delivery
// rests on: once a batch has been through a lane, taking it, filling it
// and putting it back allocates nothing — not even at batch size 1, where
// a boxed slice header per Put would be one allocation per item per hop.
func TestBatchPoolSteadyStateAllocs(t *testing.T) {
	var pool BatchPool
	lane := pool.Lane(1)
	it := EOSItem(1)
	cycle := func() {
		b := lane.Get(1)
		b.Items = append(b.Items, it)
		lane.Put(b)
	}
	cycle() // first use allocates the batch
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("steady-state Get → append → Put allocates %v per cycle, want 0", allocs)
	}
}

// TestBatchPoolRecyclesClean checks what a Get hands out: empty, with
// the requested room, pinning nothing from its previous use, and counted
// in the pool.
func TestBatchPoolRecyclesClean(t *testing.T) {
	var pool BatchPool
	lane := pool.Lane(1)
	b := lane.Get(4)
	if len(b.Items) != 0 || cap(b.Items) < 4 {
		t.Fatalf("Get(4): len %d cap %d", len(b.Items), cap(b.Items))
	}
	tup := &Tuple{}
	b.Items = append(b.Items, TupleItem(tup), EOSItem(2))
	held := b.Items
	lane.Put(b)
	for i, it := range held {
		if it.Tuple != nil || it.Kind != 0 || it.Ts != 0 {
			t.Errorf("item %d not cleared by Put: %v", i, it)
		}
	}
	if gets, puts := pool.Stats(); gets != 1 || puts != 1 {
		t.Errorf("stats: %d gets, %d puts; want 1 and 1", gets, puts)
	}
}

// TestLaneGetKeepsRecycledRoom: a fresh batch is born with the room asked
// for, and a recycled one keeps the room it was born with, whatever the
// next Get asks — an edge sizes its batches by what it carries, and a
// reallocation here would undo that for every batch it recycles.
func TestLaneGetKeepsRecycledRoom(t *testing.T) {
	var pool BatchPool
	lane := pool.Lane(1)
	b := lane.Get(64)
	if cap(b.Items) != 64 {
		t.Fatalf("fresh Get(64): room %d", cap(b.Items))
	}
	lane.Put(b)
	if again := lane.Get(256); again != b || cap(again.Items) != 64 {
		t.Errorf("Get(256) of a recycled 64-room batch: same batch %v, room %d; want the same batch, room 64", again == b, cap(again.Items))
	}
	if fresh := lane.Get(256); cap(fresh.Items) != 256 {
		t.Errorf("fresh Get(256): room %d", cap(fresh.Items))
	}
}
