package core

import (
	"testing"

	"pjoin/internal/op"
	"pjoin/internal/store"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// memTuples returns side s's memory-resident tuples.
func memTuples(j *PJoin, s int) []*store.StoredTuple {
	st := j.base.States[s]
	var out []*store.StoredTuple
	for i := 0; i < st.NumBuckets(); i++ {
		out = st.Bucket(i).AppendMem(out)
	}
	return out
}

// TestStateHoldsTheDeliveredTuple: a tuple enters the state with its
// arrival time beside it, as under the executor, which restamps items and
// never tuples. A shared tuple whose own Ts (4) is not its arrival (8) is
// stored by pointer and left unwritten; a borrowed one — an upstream
// join's result, alive only until its batch is recycled — is stored as
// the join's own copy. Both carry ATS = the item's Ts, and the result
// they make carries the later of the two.
func TestStateHoldsTheDeliveredTuple(t *testing.T) {
	wide, err := schemaA.Concat("AB", schemaB)
	if err != nil {
		t.Fatal(err)
	}
	sink := &op.Collector{}
	j, err := New(Config{SchemaA: schemaA, SchemaB: wide}, sink)
	if err != nil {
		t.Fatal(err)
	}

	shared := stream.MustTuple(schemaA, 4, value.Int(1), value.Str("a"))
	if err := j.Process(0, stream.Item{Kind: stream.KindTuple, Tuple: shared, Ts: 8}, 8); err != nil {
		t.Fatal(err)
	}
	if got := memTuples(j, 0); len(got) != 1 || got[0].T != shared || got[0].ATS != 8 {
		t.Fatalf("shared arrival stored as %+v, want the tuple itself at ATS 8", got)
	}
	if shared.Ts != 4 || shared.Span != 0 || shared.Values[1].StrVal() != "a" {
		t.Errorf("the shared tuple was written: %v", shared)
	}

	var pool stream.BatchPool
	lane := pool.Lane(1)
	b := lane.Get(1)
	b.AppendJoin(stream.MustTuple(schemaA, 5, value.Int(1), value.Str("x")),
		stream.MustTuple(schemaB, 7, value.Int(1), value.Str("y")), 7)
	lent := b.Items[0]
	lent.Ts = 12 // the driver's restamp
	if err := j.ProcessBatch(1, []stream.Item{lent}, 12); err != nil {
		t.Fatal(err)
	}
	lane.Put(b) // the batch is recycled: the lent tuple reads zero
	got := memTuples(j, 1)
	if len(got) != 1 || got[0].T == lent.Tuple || got[0].ATS != 12 {
		t.Fatalf("borrowed arrival stored as %+v, want a copy at ATS 12", got)
	}
	if s := got[0].T; s.Ts != 7 || resultKey(s) != `1|"x"|1|"y"` {
		t.Errorf("the stored copy reads %v after its batch was recycled", s)
	}

	res := sink.Tuples()
	if len(res) != 1 || res[0].Ts != 12 || resultKey(res[0]) != `1|"a"|1|"x"|1|"y"` {
		t.Errorf("results %v, want one at the later arrival, 12", res)
	}
}
