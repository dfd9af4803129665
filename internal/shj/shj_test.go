package shj

import (
	"fmt"
	"testing"

	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
	"pjoin/internal/vtime"
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

func TestNewValidation(t *testing.T) {
	sink := &op.Collector{}
	if _, err := New(nil, scB, 0, 0, sink); err == nil {
		t.Error("nil schema should error")
	}
	if _, err := New(scA, scB, 0, 0, nil); err == nil {
		t.Error("nil emitter should error")
	}
	if _, err := New(scA, scB, 7, 0, sink); err == nil {
		t.Error("attr range should error")
	}
	if _, err := New(scA, scB, 0, 1, sink); err == nil {
		t.Error("kind mismatch should error")
	}
}

func TestJoinAndOrientation(t *testing.T) {
	sink := &op.Collector{}
	j, err := New(scA, scB, 0, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	a := stream.MustTuple(scA, 1, value.Int(5), value.Str("a"))
	b := stream.MustTuple(scB, 2, value.Int(5), value.Str("b"))
	if err := j.Process(0, stream.TupleItem(a), 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Process(1, stream.TupleItem(b), 2); err != nil {
		t.Fatal(err)
	}
	// Either arrival order produces A-first results.
	b2 := stream.MustTuple(scB, 3, value.Int(6), value.Str("b2"))
	a2 := stream.MustTuple(scA, 4, value.Int(6), value.Str("a2"))
	j.Process(1, stream.TupleItem(b2), 3)
	j.Process(0, stream.TupleItem(a2), 4)
	got := sink.Tuples()
	if len(got) != 2 {
		t.Fatalf("results = %d", len(got))
	}
	for _, r := range got {
		if r.Values[1].Kind() != value.KindString || r.Values[3].Kind() != value.KindString {
			t.Fatalf("bad widths: %v", r)
		}
		if r.Values[1].StrVal()[0] != 'a' || r.Values[3].StrVal()[0] != 'b' {
			t.Errorf("orientation wrong: %v", r)
		}
	}
	if j.StateTuples() != 4 {
		t.Errorf("state = %d", j.StateTuples())
	}
}

func TestPunctuationsIgnored(t *testing.T) {
	sink := &op.Collector{}
	j, _ := New(scA, scB, 0, 0, sink)
	p := stream.PunctItem(punct.MustKeyOnly(2, 0, punct.Const(value.Int(1))), 1)
	if err := j.Process(0, p, 1); err != nil {
		t.Fatal(err)
	}
	if len(sink.Items) != 0 {
		t.Error("punctuation leaked through")
	}
}

func TestProtocol(t *testing.T) {
	sink := &op.Collector{}
	j, _ := New(scA, scB, 0, 0, sink)
	if err := j.Finish(0); err == nil {
		t.Error("Finish before EOS should error")
	}
	if err := j.Process(3, stream.EOSItem(1), 1); err == nil {
		t.Error("bad port should error")
	}
	j.Process(0, stream.EOSItem(1), 1)
	if err := j.Process(0, stream.EOSItem(2), 2); err == nil {
		t.Error("dup EOS should error")
	}
	j.Process(1, stream.EOSItem(3), 3)
	if err := j.Finish(4); err != nil {
		t.Fatal(err)
	}
	if last := sink.Items[len(sink.Items)-1]; last.Kind != stream.KindEOS {
		t.Error("EOS not forwarded")
	}
	if err := j.Finish(5); err == nil {
		t.Error("double Finish should error")
	}
	if err := j.Process(0, p(t), 6); err == nil {
		t.Error("Process after Finish should error")
	}
	if did, _ := j.OnIdle(7); did {
		t.Error("SHJ has no idle work")
	}
}

func p(t *testing.T) stream.Item {
	t.Helper()
	return stream.TupleItem(stream.MustTuple(scA, 6, value.Int(1), value.Str("x")))
}

func TestMetadata(t *testing.T) {
	sink := &op.Collector{}
	j, _ := New(scA, scB, 0, 0, sink)
	if j.Name() != "shj" || j.NumPorts() != 2 || j.OutSchema().Width() != 4 {
		t.Error("metadata wrong")
	}
}

// result renders a result for a multiset: values, Ts and Span.
func result(t *stream.Tuple) string { return fmt.Sprintf("%v span %d", t, t.Span) }

func same(a, b *stream.Tuple) bool {
	if a.Ts != b.Ts || a.Span != b.Span || len(a.Values) != len(b.Values) {
		return false
	}
	for i, v := range a.Values {
		if !v.Equal(b.Values[i]) {
			return false
		}
	}
	return true
}

// TestBorrowedResults: over a random input, every result arrives
// Borrowed, every result of one Process call stays intact until the call
// returns and reads as the zero header after it, and the Keep'd copies
// are the nested-loop join's multiset: side 0's values first, Ts the
// later partner's, Span JoinSpan.
func TestBorrowedResults(t *testing.T) {
	rng := vtime.NewRNG(44)
	var (
		kept   stream.ResultSlab
		call   []*stream.Tuple // the results of the current call, as lent
		copies []*stream.Tuple // their Keep'd copies
		got    = map[string]int{}
	)
	sink := op.EmitterFunc(func(it stream.Item) error {
		if it.Kind != stream.KindTuple {
			return nil
		}
		if !it.Borrowed {
			t.Fatalf("result %v not Borrowed", it.Tuple)
		}
		for i, r := range call {
			if !same(r, copies[i]) {
				t.Fatalf("result %d of the call reads %v before the call returned, was %v", i, r, copies[i])
			}
		}
		c := kept.Keep(it)
		if c.Borrowed || c.Tuple == it.Tuple || c.Ts != it.Tuple.Ts {
			t.Fatalf("Keep returned %+v for %+v", c, it)
		}
		call, copies = append(call, it.Tuple), append(copies, c.Tuple)
		got[result(c.Tuple)]++
		return nil
	})
	j, err := New(scA, scB, 0, 0, sink)
	if err != nil {
		t.Fatal(err)
	}
	var in [2][]*stream.Tuple
	for ts := stream.Time(1); ts <= 600; ts++ {
		port := rng.Intn(2)
		sc := scA
		if port == 1 {
			sc = scB
		}
		tp := stream.MustTuple(sc, ts, value.Int(int64(rng.Intn(8))), value.Str(fmt.Sprint(ts)))
		if rng.Intn(3) == 0 {
			tp.Span = uint64(1 + rng.Intn(50))
		}
		in[port] = append(in[port], tp)
		call, copies = call[:0], copies[:0]
		if err := j.Process(port, stream.TupleItem(tp), ts); err != nil {
			t.Fatal(err)
		}
		for _, r := range call {
			if r.Values != nil || r.Ts != 0 || r.Span != 0 {
				t.Fatalf("result %v still readable after its call returned", r)
			}
		}
	}
	want := map[string]int{}
	for _, a := range in[0] {
		for _, b := range in[1] {
			if a.Values[0].Equal(b.Values[0]) {
				want[result(a.Join(b))]++
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d distinct results, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("result %s: %d, want %d", k, got[k], n)
		}
	}
}

// TestResultsAllocateNothing: once its slab has grown, a probe allocates
// no object per result, for a key with one match and for one with 1,000.
func TestResultsAllocateNothing(t *testing.T) {
	for _, matches := range []int{1, 1000} {
		j, err := New(scA, scB, 0, 0, op.EmitterFunc(func(stream.Item) error { return nil }))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < matches; i++ {
			if err := j.Process(1, stream.TupleItem(stream.MustTuple(scB, stream.Time(i), value.Int(1), value.Str("b"))), stream.Time(i)); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 50
		j.tables[0][value.Int(1).Key()] = make([]*stream.Tuple, 0, runs+1) // the probes' own inserts do not grow the table
		probe := stream.TupleItem(stream.MustTuple(scA, stream.Time(matches), value.Int(1), value.Str("a")))
		perCall := testing.AllocsPerRun(runs, func() {
			if err := j.Process(0, probe, probe.Ts); err != nil {
				t.Fatal(err)
			}
		})
		perResult := perCall / float64(matches)
		t.Logf("shj objects per result, key with %4d matches: %.4f", matches, perResult)
		if perResult != 0 {
			t.Errorf("%d matches: %.4f objects per result, want 0", matches, perResult)
		}
	}
}
