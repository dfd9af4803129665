package core

import (
	"fmt"
	"testing"

	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
	"pjoin/internal/vtime"
)

// The paper's §6 n-way join is a cascade of binary PJoins: j1 = A ⋈ B
// and j2 = (A ⋈ B) ⋈ C, all on attribute 0, with j1's emitter calling
// j2's port 0 inline. Feed items use ports 0 (A), 1 (B) and 2 (C).

var schemaC = stream.MustSchema("C",
	stream.Field{Name: "k", Kind: value.KindInt},
	stream.Field{Name: "pc", Kind: value.KindString},
)

func tupC(key int64, payload string, ts stream.Time) feedItem {
	return feedItem{2, stream.TupleItem(stream.MustTuple(schemaC, ts, value.Int(key), value.Str(payload)))}
}

type cascade struct{ j1, j2 *PJoin }

// newCascade builds the two joins with push propagation after every
// punctuation (what examples/nary builds) and punctuation checking on.
func newCascade(t *testing.T, sink op.Emitter) *cascade {
	t.Helper()
	c := &cascade{}
	cfg := Config{
		SchemaA: schemaA, SchemaB: schemaB,
		Thresholds:         Thresholds{PropagateCount: 1},
		VerifyPunctuations: true,
	}
	var err error
	c.j1, err = New(cfg, op.EmitterFunc(func(it stream.Item) error {
		return c.j2.Process(0, it, it.Ts)
	}))
	if err != nil {
		t.Fatal(err)
	}
	cfg.SchemaA, cfg.SchemaB = c.j1.OutSchema(), schemaC
	if c.j2, err = New(cfg, sink); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *cascade) feed(fi feedItem) error {
	if fi.port == 2 {
		return c.j2.Process(1, fi.item, fi.item.Ts)
	}
	return c.j1.Process(fi.port, fi.item, fi.item.Ts)
}

// run feeds the items, then EOS on A and B, j1's Finish (which sends
// j2's port-0 EOS), EOS on C and j2's Finish.
func (c *cascade) run(t *testing.T, items []feedItem) {
	t.Helper()
	var last stream.Time
	for _, fi := range items {
		if err := c.feed(fi); err != nil {
			t.Fatalf("feed(%d, %v): %v", fi.port, fi.item, err)
		}
		last = fi.item.Ts
	}
	for port := 0; port < 3; port++ {
		last++
		if err := c.feed(feedItem{port, stream.EOSItem(last)}); err != nil {
			t.Fatal(err)
		}
		if port == 1 {
			last++
			if err := c.j1.Finish(last); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.j2.Finish(last + 1); err != nil {
		t.Fatal(err)
	}
}

func (c *cascade) state() int { return c.j1.StateTuples() + c.j2.StateTuples() }

// theorem1 returns the first result that follows an output punctuation
// matching it, or "".
func theorem1(items []stream.Item) string {
	var puncts []punct.Punctuation
	for i, it := range items {
		switch it.Kind {
		case stream.KindTuple:
			for _, p := range puncts {
				if p.Matches(it.Tuple.Values) {
					return fmt.Sprintf("result %s (item %d) follows %s", it.Tuple, i, p)
				}
			}
		case stream.KindPunct:
			puncts = append(puncts, it.Punct)
		}
	}
	return ""
}

func TestNaryThreeWayJoin(t *testing.T) {
	sink := &op.Collector{}
	newCascade(t, sink).run(t, []feedItem{
		tupA(1, "a1", 1),
		tupB(1, "b1", 2),
		tupC(1, "c1", 3), // completes (a1,b1,c1)
		tupA(1, "a2", 4), // completes (a2,b1,c1)
		tupC(2, "c2", 5), // no partners
	})
	got := sink.Tuples()
	if len(got) != 2 {
		t.Fatalf("results = %d, want 2", len(got))
	}
	for _, r := range got {
		if r.Width() != 6 {
			t.Fatalf("result width = %d", r.Width())
		}
		// Fields in stream order: A, then B, then C.
		if a := r.Values[1].StrVal(); (a != "a1" && a != "a2") || r.Values[3].StrVal() != "b1" || r.Values[5].StrVal() != "c1" {
			t.Errorf("result order wrong: %v", r)
		}
	}
}

func TestNaryCrossProductCount(t *testing.T) {
	sink := &op.Collector{}
	var items []feedItem
	ts := stream.Time(0)
	for _, s := range []struct {
		n   int
		tup func(int64, string, stream.Time) feedItem
	}{{2, tupA}, {3, tupB}, {4, tupC}} {
		for i := 0; i < s.n; i++ {
			ts++
			items = append(items, s.tup(7, fmt.Sprintf("x%d", i), ts))
		}
	}
	newCascade(t, sink).run(t, items)
	if got := len(sink.Tuples()); got != 2*3*4 {
		t.Errorf("results = %d, want 24", got)
	}
}

// A punctuates key 1 while j1 still holds a1: C's c1 must stay in j2,
// because a1 and a later B tuple can still complete a result with it.
func TestNaryPurgeNeedsEmptyState(t *testing.T) {
	sink := &op.Collector{}
	c := newCascade(t, sink)
	for _, fi := range []feedItem{
		tupA(1, "a1", 1),
		tupB(1, "b1", 2),
		tupC(1, "c1", 3),
		punctFor(0, 1, 4),
		tupB(1, "b2", 5),
	} {
		if err := c.feed(fi); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sink.Tuples()); got != 2 {
		t.Errorf("results = %d, want 2: the late B tuple must still join (a1, c1)", got)
	}
}

// A punctuates key 1 with no A tuple stored: j1 purges b1 and propagates
// the punctuation at once, which purges c1 from j2.
func TestNaryPurgeWhenValueDead(t *testing.T) {
	c := newCascade(t, &op.Collector{})
	for _, fi := range []feedItem{
		tupB(1, "b1", 1),
		tupC(1, "c1", 2),
		punctFor(0, 1, 3),
	} {
		if err := c.feed(fi); err != nil {
			t.Fatal(err)
		}
	}
	if c.j1.StateTuples() != 0 || c.j2.StateTuples() != 0 {
		t.Errorf("state = %d, %d; want 0, 0", c.j1.StateTuples(), c.j2.StateTuples())
	}
	if c.j1.Metrics().Purged != 1 || c.j2.Metrics().Purged != 1 {
		t.Errorf("purged = %d, %d; want 1, 1", c.j1.Metrics().Purged, c.j2.Metrics().Purged)
	}
}

// A closes key 5 while j1 holds no A tuple, so j1 propagates the
// punctuation at once. It stays in force, so the B tuple that follows is
// dropped on the fly and nothing is stored.
func TestNaryDropOnTheFly(t *testing.T) {
	c := newCascade(t, &op.Collector{})
	for _, fi := range []feedItem{punctFor(0, 5, 1), tupB(5, "b1", 2)} {
		if err := c.feed(fi); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.j1.Metrics().DroppedOnFly; got != 1 || c.state() != 0 {
		t.Errorf("dropped=%d state=%d, want 1 and 0", got, c.state())
	}
}

// Verify checks a tuple against its own stream's punctuation set. A
// punctuation over an empty state propagates at once and is still in the
// set to catch the lie.
func TestNaryPunctuationViolationDetected(t *testing.T) {
	for _, bad := range []feedItem{tupA(5, "bad", 2), tupC(5, "bad", 2)} {
		c := newCascade(t, &op.Collector{})
		if err := c.feed(punctFor(bad.port, 5, 1)); err != nil {
			t.Fatal(err)
		}
		if err := c.feed(bad); err == nil {
			t.Errorf("port %d: a tuple after its own stream's punctuation should error", bad.port)
		}
	}
}

// Every stream closes key 1: all three punctuations reach the width-6
// output, A's constraining column 0, B's column 2 and C's column 4.
func TestNaryPropagation(t *testing.T) {
	sink := &op.Collector{}
	c := newCascade(t, sink)
	for _, fi := range []feedItem{
		tupA(1, "a1", 1),
		tupB(1, "b1", 2),
		tupC(1, "c1", 3),
		punctFor(1, 1, 4),
		punctFor(2, 1, 5),
		punctFor(0, 1, 6),
	} {
		if err := c.feed(fi); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.state(); got != 0 {
		t.Errorf("state = %d after all three punctuations", got)
	}
	ps := sink.Puncts()
	if len(ps) != 3 {
		t.Fatalf("propagated %d punctuations, want 3", len(ps))
	}
	seen := map[int]bool{}
	for _, pi := range ps {
		if pi.Punct.Width() != 6 {
			t.Fatalf("output punctuation width = %d", pi.Punct.Width())
		}
		for pos := 0; pos < 6; pos++ {
			if pi.Punct.PatternAt(pos).Kind() == punct.Constant {
				seen[pos] = true
			}
		}
	}
	if want := map[int]bool{0: true, 2: true, 4: true}; fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Errorf("constrained columns %v, want %v", seen, want)
	}
}

// TestNaryDifferential: a random three-stream punctuated workload through
// the cascade produces the exact 3-way equi-join (a nested-loop count),
// and no result follows an output punctuation that matches it.
func TestNaryDifferential(t *testing.T) {
	tups := [3]func(int64, string, stream.Time) feedItem{tupA, tupB, tupC}
	for seed := uint64(1); seed <= 300; seed++ {
		rng := vtime.NewRNG(seed)
		const nKeys, total = 6, 90
		var planned, emitted [3][nKeys]int
		for i := 0; i < total; i++ {
			planned[rng.Intn(3)][rng.Intn(nKeys)]++
		}
		var items []feedItem
		ts := stream.Time(0)
		for i := 0; i < total; i++ {
			// Pick a stream/key with remaining quota.
			var s, k int
			for {
				s, k = rng.Intn(3), rng.Intn(nKeys)
				if emitted[s][k] < planned[s][k] {
					break
				}
			}
			emitted[s][k]++
			ts++
			items = append(items, tups[s](int64(k), fmt.Sprintf("s%dk%d#%d", s, k, emitted[s][k]), ts))
			// Punctuate exhausted keys sometimes.
			if emitted[s][k] == planned[s][k] && rng.Intn(2) == 0 {
				ts++
				items = append(items, punctFor(s, int64(k), ts))
			}
		}
		want := 0
		for k := 0; k < nKeys; k++ {
			want += planned[0][k] * planned[1][k] * planned[2][k]
		}
		sink := &op.Collector{}
		newCascade(t, sink).run(t, items)
		if got := len(sink.Tuples()); got != want {
			t.Errorf("seed %d: results = %d, want %d", seed, got, want)
		}
		if breach := theorem1(sink.Items); breach != "" {
			t.Errorf("seed %d: %s", seed, breach)
		}
	}
}
