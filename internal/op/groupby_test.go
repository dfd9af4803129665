package op

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// TestGroupByAllocsPerGroup: once warm, a group's whole life — opened by
// a tuple, fed a second, closed by its punctuation a few groups later —
// costs the group-by no object. The closed group's aggregate is reused
// (zeroed: every row must read 1 + 2), and its row is lent from a slab
// rewound when the call returns: the item arrives Borrowed, and a reader
// that kept its tuple past the call finds Values == nil.
//
// Seven groups are open at a time, so the group map stays within Go's
// one-group small map. A larger map under the same churn grows now and
// then on Go 1.24 (deleted slots it cannot reuse run its growth budget
// down; with 32 open groups a scratch run saw one growth near 10^4 cycles
// and the next near 10^6): a runtime cost, logarithmic in the groups seen.
// The heap meter counts the whole process, whose other goroutines allocate
// now and then (see TestDiskPassSteadyStateAllocs), so the loop is
// measured three times and the least reading counts: an object the
// group-by allocates per group, or per slab chunk of groups, shows in all
// three.
func TestGroupByAllocsPerGroup(t *testing.T) {
	var (
		rows, wrong int
		kept        *stream.Tuple
	)
	g, _ := NewGroupBy(inSchema, 0, 1, AggSum, EmitterFunc(func(it stream.Item) error {
		if it.Kind != stream.KindTuple {
			return nil
		}
		rows++
		if !it.Borrowed || it.Tuple.Values[1].FloatVal() != 3 {
			wrong++
		}
		kept = it.Tuple
		return nil
	}))
	const open, warm, groups, readings = 7, 64, 4096, 3
	n := warm + 2*readings*groups // AllocsPerRun calls its function twice
	items := make([]stream.Item, 0, 3*n)
	for k := 0; k < n; k++ {
		ts := stream.Time(3*k + 1)
		items = append(items, tup(t, int64(k), 1, ts), tup(t, int64(k), 2, ts+1))
		// Each cycle closes the group opened open cycles before, so open
		// groups stay open at a time.
		items = append(items, keyPunct(int64(k-open), ts+2))
	}
	next := 0
	cycle := func() {
		for _, it := range items[3*next : 3*next+3] {
			if err := g.Process(0, it, it.Ts); err != nil {
				t.Fatal(err)
			}
		}
		next++
	}
	for next < warm {
		cycle()
	}
	// One measured call of all the cycles: AllocsPerRun would round a
	// per-group fraction down to zero.
	per := math.Inf(1)
	for range readings {
		per = min(per, testing.AllocsPerRun(1, func() {
			for i := 0; i < groups; i++ {
				cycle()
			}
		})/groups)
	}
	t.Logf("%.4f objects per group, %d open", per, g.Groups())
	if per != 0 {
		t.Errorf("%.4f objects per group, want 0", per)
	}
	if rows != next-open || wrong != 0 {
		t.Errorf("%d rows, %d of them not Borrowed or not 3; want %d rows, all right", rows, wrong, next-open)
	}
	if kept == nil || kept.Values != nil {
		t.Errorf("a row kept past its call reads %v, want nil Values", kept)
	}
}

// scanModel is the group-by's punctuation handling as it was before
// constant punctuations closed their group by lookup: every punctuation
// scans every open group in creation order. It sums attribute 1 per
// attribute 0 and rejects a tuple a punctuation closed by matching it
// against every closing pattern.
type scanModel struct {
	groups map[value.Key]*float64
	order  []value.Value
	closed []punct.Pattern
	early  int64
	out    []stream.Item
}

func (m *scanModel) process(sc *stream.Schema, it stream.Item) error {
	switch it.Kind {
	case stream.KindTuple:
		key := it.Tuple.Values[0]
		for _, pat := range m.closed {
			if pat.Matches(key) {
				return fmt.Errorf("late tuple for %s", key)
			}
		}
		k := key.Key()
		if m.groups[k] == nil {
			m.groups[k] = new(float64)
			m.order = append(m.order, key)
		}
		*m.groups[k] += it.Tuple.Values[1].FloatVal()
	case stream.KindPunct:
		p := it.Punct
		if p.PatternAt(1).Kind() != punct.Wildcard {
			return nil
		}
		pat := p.PatternAt(0)
		kept := m.order[:0]
		for _, key := range m.order {
			if !pat.Matches(key) {
				kept = append(kept, key)
				continue
			}
			m.emit(sc, key, it.Ts)
			m.early++
		}
		m.order = kept
		m.closed = append(m.closed, pat)
		outP, err := p.Place(0, 2, 0)
		if err != nil {
			return err
		}
		m.out = append(m.out, stream.PunctItem(outP, it.Ts))
	case stream.KindEOS:
		for _, key := range m.order {
			m.emit(sc, key, it.Ts)
		}
		m.order = nil
		m.out = append(m.out, stream.EOSItem(it.Ts))
	}
	return nil
}

func (m *scanModel) emit(sc *stream.Schema, key value.Value, ts stream.Time) {
	m.out = append(m.out, stream.TupleItem(stream.MustTuple(sc, ts, key, value.Float(*m.groups[key.Key()]))))
	delete(m.groups, key.Key())
}

// TestGroupByMatchesScanModel holds the group-by to scanModel over random
// tuples and punctuations of every kind — constants (closing an open
// group, a closed one or one never seen), ranges, enums, empty and
// wildcard patterns, and punctuations whose aggregate attribute is not a
// wildcard — on int keys and on float keys that include -0 and 0. After
// every item the errors, open groups and early count agree; at the end
// the emitted item sequences are equal.
func TestGroupByMatchesScanModel(t *testing.T) {
	floatSchema := stream.MustSchema("f",
		stream.Field{Name: "k", Kind: value.KindFloat},
		stream.Field{Name: "v", Kind: value.KindFloat},
	)
	intKey := func(r *rand.Rand) value.Value { return value.Int(int64(r.Intn(16))) }
	floats := []value.Value{value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(1), value.Float(2.5), value.Float(-3)}
	floatKey := func(r *rand.Rand) value.Value { return floats[r.Intn(len(floats))] }
	for _, c := range []struct {
		name string
		sc   *stream.Schema
		key  func(*rand.Rand) value.Value
	}{{"int", inSchema, intKey}, {"float", floatSchema, floatKey}} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 200; seed++ {
				checkScanModel(t, seed, c.sc, c.key)
			}
		})
	}
}

func checkScanModel(t *testing.T, seed int64, sc *stream.Schema, key func(*rand.Rand) value.Value) {
	r := rand.New(rand.NewSource(seed))
	got := &Collector{}
	g, err := NewGroupBy(sc, 0, 1, AggSum, got)
	if err != nil {
		t.Fatal(err)
	}
	outSc := g.OutSchema()
	m := &scanModel{groups: map[value.Key]*float64{}}
	groupPat := func() punct.Pattern {
		switch r.Intn(10) {
		case 0:
			lo, hi := key(r), key(r)
			if hi.Less(lo) {
				lo, hi = hi, lo
			}
			return punct.MustRange(lo, hi)
		case 1:
			return punct.MustEnum(key(r), key(r), key(r))
		case 2:
			return punct.None()
		case 3:
			if r.Intn(8) == 0 {
				return punct.Star()
			}
		}
		return punct.Const(key(r))
	}
	for ts := stream.Time(1); ts <= 200; ts++ {
		var it stream.Item
		if r.Intn(3) > 0 {
			it = stream.TupleItem(stream.MustTuple(sc, ts, key(r), value.Float(float64(r.Intn(9)))))
		} else {
			agg := punct.Star()
			if r.Intn(6) == 0 {
				agg = punct.Const(value.Float(1))
			}
			it = stream.PunctItem(punct.MustNew(groupPat(), agg), ts)
		}
		gErr, mErr := g.Process(0, it, ts), m.process(outSc, it)
		if (gErr == nil) != (mErr == nil) {
			t.Fatalf("seed %d, ts %d, %v: group-by error %v, model error %v", seed, ts, it.Kind, gErr, mErr)
		}
		if g.Groups() != len(m.groups) || g.EarlyEmitted() != m.early {
			t.Fatalf("seed %d, ts %d: %d open groups and %d early, model %d and %d",
				seed, ts, g.Groups(), g.EarlyEmitted(), len(m.groups), m.early)
		}
	}
	if err := g.Process(0, stream.EOSItem(201), 201); err != nil {
		t.Fatal(err)
	}
	if err := g.Finish(201); err != nil {
		t.Fatal(err)
	}
	m.process(outSc, stream.EOSItem(201))
	if len(got.Items) != len(m.out) {
		t.Fatalf("seed %d: %d items emitted, model %d", seed, len(got.Items), len(m.out))
	}
	for i, want := range m.out {
		it := got.Items[i]
		same := it.Kind == want.Kind && it.Ts == want.Ts
		switch {
		case !same:
		case it.Kind == stream.KindTuple:
			same = it.Tuple.Values[0].Equal(want.Tuple.Values[0]) && it.Tuple.Values[1].Equal(want.Tuple.Values[1])
		case it.Kind == stream.KindPunct:
			same = it.Punct.Equal(want.Punct)
		}
		if !same {
			t.Fatalf("seed %d: item %d is %v %v, model %v %v", seed, i, it.Kind, it, want.Kind, want)
		}
	}
}
