package core

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/shj"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// TestStringKeysThroughEveryMap joins on a string key whose equal values
// never share a backing array: every tuple's key and every punctuation's
// constant is a copy of its own, and the PJoin spills, so a disk pass
// pairs keys decoded from spill records with keys from the source. Every
// map keyed by a value — shj's tables, punct.Set's constant index, the
// group-by's groups, the key punctuator's seen keys — must treat the
// copies as one key: results against a nested loop, matches against a
// scan of the punctuations' constants, one group and one duplicate per
// key. A map that compared data pointers finds no partner anywhere.
func TestStringKeysThroughEveryMap(t *testing.T) {
	const keys, perKey = 12, 6
	key := func(i int) value.Value { return value.Str(strings.Clone(fmt.Sprintf("key-%02d", i))) }
	scA := stream.MustSchema("A", stream.Field{Name: "k", Kind: value.KindString}, stream.Field{Name: "a", Kind: value.KindInt})
	scB := stream.MustSchema("B", stream.Field{Name: "k", Kind: value.KindString}, stream.Field{Name: "b", Kind: value.KindInt})
	var in [2][]*stream.Tuple
	for n := 0; n < keys*perKey; n++ {
		ts := stream.Time(2*n + 1)
		in[0] = append(in[0], stream.MustTuple(scA, ts, key(n%keys), value.Int(int64(n))))
		in[1] = append(in[1], stream.MustTuple(scB, ts+1, key(n*5%keys), value.Int(int64(n))))
	}
	if a, b := in[0][0].Values[0].StrVal(), in[0][keys].Values[0].StrVal(); a != b || unsafe.StringData(a) == unsafe.StringData(b) {
		t.Fatalf("the keys %q and %q must be equal copies", a, b)
	}
	want := map[string]int{}
	for _, a := range in[0] {
		for _, b := range in[1] {
			if a.Values[0].StrVal() == b.Values[0].StrVal() {
				want[fmt.Sprint(a.Values, b.Values)]++
			}
		}
	}
	results := func(items []stream.Item) map[string]int {
		got := map[string]int{}
		for _, it := range items {
			if it.Kind == stream.KindTuple {
				got[fmt.Sprint(it.Tuple.Values[:2], it.Tuple.Values[2:])]++
			}
		}
		return got
	}
	sameResults := func(t *testing.T, who string, got map[string]int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d distinct results, the nested loop %d", who, len(got), len(want))
		}
		for r, n := range want {
			if got[r] != n {
				t.Fatalf("%s: result %s %d times, the nested loop %d", who, r, got[r], n)
			}
		}
	}

	t.Run("shj", func(t *testing.T) {
		var out op.Collector
		j, err := shj.New(scA, scB, 0, 0, &out)
		if err != nil {
			t.Fatal(err)
		}
		for n := range in[0] {
			for port := 0; port < 2; port++ {
				tp := in[port][n]
				if err := j.Process(port, stream.TupleItem(tp), tp.Ts); err != nil {
					t.Fatal(err)
				}
			}
		}
		sameResults(t, "shj", results(out.Items))
	})

	t.Run("pjoin-spilling", func(t *testing.T) {
		var out op.Collector
		j, err := New(Config{SchemaA: scA, SchemaB: scB, NumBuckets: 4,
			Thresholds: Thresholds{MemoryBytes: 512, DiskJoinIdle: stream.Millisecond}}, &out)
		if err != nil {
			t.Fatal(err)
		}
		var last stream.Time
		for n := range in[0] {
			for port := 0; port < 2; port++ {
				tp := in[port][n]
				if err := j.Process(port, stream.TupleItem(tp), tp.Ts); err != nil {
					t.Fatal(err)
				}
				last = tp.Ts
			}
		}
		for port := 0; port < 2; port++ {
			if err := j.Process(port, stream.EOSItem(last+1), last+1); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Finish(last + 2); err != nil {
			t.Fatal(err)
		}
		if m := j.Metrics(); m.DiskJoins == 0 {
			t.Fatalf("no result came from a disk pass (%d tuples spilled): the test proves nothing", m.SpilledTuples)
		}
		sameResults(t, "pjoin", results(out.Items))
	})

	t.Run("punct-set", func(t *testing.T) {
		set := punct.NewKeyedSet(0, false)
		var consts []value.Value
		for i := 0; i < keys; i += 3 {
			k := key(i)
			p, err := punct.KeyOnly(2, 0, punct.Const(k))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := set.Add(p); err != nil {
				t.Fatal(err)
			}
			consts = append(consts, k)
		}
		for _, tp := range in[0] {
			var wantC value.Value
			for _, c := range consts {
				if c.StrVal() == tp.Values[0].StrVal() {
					wantC = c
				}
			}
			e, ea := set.FirstMatch(tp.Values), set.FirstMatchAttr(0, tp.Values[0])
			if e != ea {
				t.Fatalf("key %v: FirstMatch %v, FirstMatchAttr %v", tp.Values[0], e, ea)
			}
			if (e != nil) != wantC.IsValid() || e != nil && !e.P.PatternAt(0).ConstVal().Equal(wantC) {
				t.Fatalf("key %v: matched %v, want the punctuation on %v", tp.Values[0], e, wantC)
			}
		}
	})

	t.Run("group-by", func(t *testing.T) {
		var out op.Collector
		g, err := op.NewGroupBy(scA, 0, 1, op.AggCount, &out)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range in[0] {
			if err := g.Process(0, stream.TupleItem(tp), tp.Ts); err != nil {
				t.Fatal(err)
			}
		}
		if g.Groups() != keys {
			t.Fatalf("%d groups over %d keys", g.Groups(), keys)
		}
		now := in[0][len(in[0])-1].Ts
		for i := 0; i < keys; i += 2 {
			p, err := punct.KeyOnly(2, 0, punct.Const(key(i)))
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Process(0, stream.PunctItem(p, now), now); err != nil {
				t.Fatal(err)
			}
		}
		if g.Groups() != keys/2 || g.EarlyEmitted() != keys/2 {
			t.Fatalf("%d groups open and %d closed early after punctuating half of %d keys", g.Groups(), g.EarlyEmitted(), keys)
		}
		if err := g.Process(0, stream.EOSItem(now), now); err != nil {
			t.Fatal(err)
		}
		if err := g.Finish(now); err != nil {
			t.Fatal(err)
		}
		counts := map[string]int64{}
		for _, it := range out.Items {
			if it.Kind == stream.KindTuple {
				counts[it.Tuple.Values[0].StrVal()] += it.Tuple.Values[1].IntVal()
			}
		}
		if len(counts) != keys {
			t.Fatalf("rows for %d keys, want %d", len(counts), keys)
		}
		for k, n := range counts {
			if n != perKey {
				t.Errorf("group %q counted %d tuples, want %d", k, n, perKey)
			}
		}
	})

	t.Run("key-punctuator", func(t *testing.T) {
		var out op.Collector
		kp, err := op.NewKeyPunctuator(scA, 0, &out)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range in[0][:keys] {
			if err := kp.Process(0, stream.TupleItem(tp), tp.Ts); err != nil {
				t.Fatal(err)
			}
		}
		for _, tp := range in[0][keys:] {
			if err := kp.Process(0, stream.TupleItem(tp), tp.Ts); err == nil || !strings.Contains(err.Error(), "duplicate key") {
				t.Fatalf("a copy of key %v: %v, want a duplicate-key error", tp.Values[0], err)
			}
		}
	})
}
