package op

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

var inSchema = stream.MustSchema("Out1",
	stream.Field{Name: "item_id", Kind: value.KindInt},
	stream.Field{Name: "bid_increase", Kind: value.KindFloat},
)

func tup(t *testing.T, item int64, inc float64, ts stream.Time) stream.Item {
	t.Helper()
	return stream.TupleItem(stream.MustTuple(inSchema, ts, value.Int(item), value.Float(inc)))
}

func keyPunct(item int64, ts stream.Time) stream.Item {
	return stream.PunctItem(punct.MustKeyOnly(2, 0, punct.Const(value.Int(item))), ts)
}

func TestCollector(t *testing.T) {
	c := &Collector{}
	c.Emit(tup(t, 1, 1, 1))
	c.Emit(keyPunct(1, 2))
	c.Emit(stream.EOSItem(3))
	if len(c.Items) != 3 || len(c.Tuples()) != 1 || len(c.Puncts()) != 1 {
		t.Errorf("collector contents wrong: %v", c.Items)
	}
	c.Reset()
	if len(c.Items) != 0 {
		t.Error("Reset did not clear")
	}
}

func TestEmitterFunc(t *testing.T) {
	want := errors.New("sentinel")
	f := EmitterFunc(func(stream.Item) error { return want })
	if got := f.Emit(stream.Item{}); got != want {
		t.Errorf("EmitterFunc did not pass through: %v", got)
	}
}

func TestValidatePort(t *testing.T) {
	if err := ValidatePort("x", 0, 1); err != nil {
		t.Errorf("valid port rejected: %v", err)
	}
	if err := ValidatePort("x", 1, 1); err == nil {
		t.Error("port 1 of 1 should error")
	}
	if err := ValidatePort("x", -1, 1); err == nil {
		t.Error("negative port should error")
	}
}

// --- GroupBy ---

func TestGroupByValidation(t *testing.T) {
	sink := &Collector{}
	if _, err := NewGroupBy(nil, 0, 1, AggSum, sink); err == nil {
		t.Error("nil schema should error")
	}
	if _, err := NewGroupBy(inSchema, 0, 1, AggSum, nil); err == nil {
		t.Error("nil emitter should error")
	}
	if _, err := NewGroupBy(inSchema, 7, 1, AggSum, sink); err == nil {
		t.Error("bad group attr should error")
	}
	if _, err := NewGroupBy(inSchema, 0, 7, AggSum, sink); err == nil {
		t.Error("bad agg attr should error")
	}
	strSchema := stream.MustSchema("s",
		stream.Field{Name: "k", Kind: value.KindInt},
		stream.Field{Name: "v", Kind: value.KindString},
	)
	if _, err := NewGroupBy(strSchema, 0, 1, AggSum, sink); err == nil {
		t.Error("sum over strings should error")
	}
	if _, err := NewGroupBy(strSchema, 0, 1, AggAvg, sink); err == nil {
		t.Error("avg over strings should error")
	}
}

func TestGroupBySumWithEOSFlush(t *testing.T) {
	sink := &Collector{}
	g, err := NewGroupBy(inSchema, 0, 1, AggSum, sink)
	if err != nil {
		t.Fatal(err)
	}
	g.Process(0, tup(t, 1, 2.5, 1), 1)
	g.Process(0, tup(t, 1, 1.5, 2), 2)
	g.Process(0, tup(t, 2, 10, 3), 3)
	if len(sink.Tuples()) != 0 {
		t.Fatal("group-by emitted before punctuation or EOS")
	}
	g.Process(0, stream.EOSItem(4), 4)
	if err := g.Finish(5); err != nil {
		t.Fatal(err)
	}
	got := sink.Tuples()
	if len(got) != 2 {
		t.Fatalf("results = %d", len(got))
	}
	// Creation order: group 1 then group 2.
	if got[0].Values[1].FloatVal() != 4.0 || got[1].Values[1].FloatVal() != 10.0 {
		t.Errorf("sums wrong: %v %v", got[0], got[1])
	}
}

func TestGroupByEarlyEmissionOnPunctuation(t *testing.T) {
	sink := &Collector{}
	g, _ := NewGroupBy(inSchema, 0, 1, AggSum, sink)
	g.Process(0, tup(t, 1, 2, 1), 1)
	g.Process(0, tup(t, 1, 3, 2), 2)
	g.Process(0, tup(t, 2, 5, 3), 3)
	// Punctuation for item 1: its sum is final and must come out NOW.
	if err := g.Process(0, keyPunct(1, 4), 4); err != nil {
		t.Fatal(err)
	}
	tps := sink.Tuples()
	if len(tps) != 1 || tps[0].Values[1].FloatVal() != 5.0 {
		t.Fatalf("early emission wrong: %v", tps)
	}
	// The punctuation itself is propagated over the output schema.
	ps := sink.Puncts()
	if len(ps) != 1 || ps[0].Punct.Width() != 2 {
		t.Fatalf("propagated punctuation wrong: %v", ps)
	}
	if g.EarlyEmitted() != 1 || g.Groups() != 1 {
		t.Errorf("early=%d groups=%d", g.EarlyEmitted(), g.Groups())
	}
	// Late tuple for the closed group is a violation.
	if err := g.Process(0, tup(t, 1, 9, 5), 5); err == nil {
		t.Error("late tuple for closed group should error")
	}
}

// TestGroupByFloatKeysCloseAsMatches: the group-by closes float keys as
// Pattern.Matches does. A punctuation on 0 leaves the -0 group open; a
// float range ending at 0 closes -0 too, and every NaN.
func TestGroupByFloatKeysCloseAsMatches(t *testing.T) {
	negZero := math.Copysign(0, -1)
	g, _ := NewGroupBy(inSchema, 1, 0, AggCount, &Collector{})
	closeKeys := func(p punct.Pattern, ts stream.Time) {
		t.Helper()
		if err := g.Process(0, stream.PunctItem(punct.MustKeyOnly(2, 1, p), ts), ts); err != nil {
			t.Fatal(err)
		}
	}
	closeKeys(punct.Const(value.Float(0)), 1)
	if err := g.Process(0, tup(t, 1, negZero, 2), 2); err != nil {
		t.Errorf("a -0 tuple after the punctuation on 0: %v", err)
	}
	if err := g.Process(0, tup(t, 1, 0, 3), 3); err == nil {
		t.Error("a 0 tuple after the punctuation on 0 was accepted")
	}
	closeKeys(punct.MustRange(value.Float(-1), value.Float(0)), 4)
	for _, v := range []float64{negZero, math.NaN()} {
		if err := g.Process(0, tup(t, 1, v, 5), 5); err == nil {
			t.Errorf("a %v tuple after the punctuation on [-1 .. 0] was accepted", v)
		}
	}
}

func TestGroupByRangePunctuationClosesSeveral(t *testing.T) {
	sink := &Collector{}
	g, _ := NewGroupBy(inSchema, 0, 1, AggCount, sink)
	for i := int64(0); i < 6; i++ {
		g.Process(0, tup(t, i, 1, stream.Time(i+1)), stream.Time(i+1))
	}
	p := stream.PunctItem(punct.MustKeyOnly(2, 0, punct.MustRange(value.Int(0), value.Int(2))), 10)
	if err := g.Process(0, p, 10); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Tuples()); got != 3 {
		t.Errorf("range punctuation closed %d groups, want 3", got)
	}
	if g.Groups() != 3 {
		t.Errorf("open groups = %d", g.Groups())
	}
}

// TestGroupByRowsInChunks: the rows a group-by emits are built in its own
// result slab, a chunk of headers and one of values for many rows, not two
// objects each.
func TestGroupByRowsInChunks(t *testing.T) {
	g, _ := NewGroupBy(inSchema, 0, 1, AggSum, EmitterFunc(func(stream.Item) error { return nil }))
	const groups = 1000
	for k := int64(0); k < groups; k++ {
		g.Process(0, tup(t, k, 1, stream.Time(k+1)), stream.Time(k+1))
	}
	g.Process(0, stream.EOSItem(groups+1), groups+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := g.Finish(groups + 2); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / groups
	t.Logf("%.3f objects per emitted row", per)
	if per > 1.0/8 {
		t.Errorf("%.3f objects per emitted row, want at most 1/8", per)
	}
}

// TestGroupByPunctAllocs: the keys a group-by has closed cost it no
// object per punctuation once warm — consecutive constants extend one
// interval — where a set of the punctuations themselves grows by an entry
// and an index slot each.
func TestGroupByPunctAllocs(t *testing.T) {
	g, _ := NewGroupBy(inSchema, 0, 1, AggSum, EmitterFunc(func(stream.Item) error { return nil }))
	const warm, closes = 64, 10_000
	ps := make([]stream.Item, warm+2*closes) // AllocsPerRun calls its function twice
	for k := range ps {
		ps[k] = keyPunct(int64(k), stream.Time(k+1))
	}
	next := 0
	closeNext := func() {
		if err := g.Process(0, ps[next], ps[next].Ts); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < warm {
		closeNext()
	}
	// One measured call of all the closes: AllocsPerRun would round a
	// per-punctuation fraction down to zero.
	per := testing.AllocsPerRun(1, func() {
		for i := 0; i < closes; i++ {
			closeNext()
		}
	}) / closes
	t.Logf("%.4f objects per punctuation, %d closed intervals", per, g.ClosedIntervals())
	if per != 0 {
		t.Errorf("%.4f objects per punctuation, want 0", per)
	}
	if g.ClosedIntervals() != 1 {
		t.Errorf("%d keys closed in order make %d intervals, want 1", next, g.ClosedIntervals())
	}
}

func TestGroupByNonWildcardOtherPatternIgnored(t *testing.T) {
	sink := &Collector{}
	g, _ := NewGroupBy(inSchema, 0, 1, AggSum, sink)
	g.Process(0, tup(t, 1, 2, 1), 1)
	// Punctuation constraining the aggregate attribute too: cannot close
	// a whole group; must be ignored.
	p := stream.PunctItem(punct.MustNew(punct.Const(value.Int(1)), punct.Const(value.Float(2))), 2)
	if err := g.Process(0, p, 2); err != nil {
		t.Fatal(err)
	}
	if len(sink.Tuples()) != 0 || len(sink.Puncts()) != 0 {
		t.Error("partial punctuation should not emit anything")
	}
}

func TestGroupByWildcardPunctuationFlushesAll(t *testing.T) {
	sink := &Collector{}
	g, _ := NewGroupBy(inSchema, 0, 1, AggSum, sink)
	g.Process(0, tup(t, 1, 1, 1), 1)
	g.Process(0, tup(t, 2, 2, 2), 2)
	p := stream.PunctItem(punct.MustNew(punct.Star(), punct.Star()), 3)
	if err := g.Process(0, p, 3); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Tuples()); got != 2 {
		t.Errorf("wildcard punctuation flushed %d groups", got)
	}
}

func TestGroupByAggregates(t *testing.T) {
	cases := []struct {
		agg  AggKind
		want value.Value
	}{
		{AggCount, value.Int(3)},
		{AggMin, value.Float(1)},
		{AggMax, value.Float(4)},
		{AggAvg, value.Float(8.0 / 3.0)},
	}
	for _, c := range cases {
		sink := &Collector{}
		g, err := NewGroupBy(inSchema, 0, 1, c.agg, sink)
		if err != nil {
			t.Fatalf("%v: %v", c.agg, err)
		}
		for i, inc := range []float64{3, 1, 4} {
			g.Process(0, tup(t, 1, inc, stream.Time(i+1)), stream.Time(i+1))
		}
		g.Process(0, stream.EOSItem(9), 9)
		if err := g.Finish(10); err != nil {
			t.Fatal(err)
		}
		got := sink.Tuples()
		if len(got) != 1 || !got[0].Values[1].Equal(c.want) {
			t.Errorf("%v = %v, want %v", c.agg, got, c.want)
		}
	}
}

func TestGroupByIntSumStaysInt(t *testing.T) {
	intSchema := stream.MustSchema("s",
		stream.Field{Name: "k", Kind: value.KindInt},
		stream.Field{Name: "v", Kind: value.KindInt},
	)
	sink := &Collector{}
	g, _ := NewGroupBy(intSchema, 0, 1, AggSum, sink)
	g.Process(0, stream.TupleItem(stream.MustTuple(intSchema, 1, value.Int(1), value.Int(2))), 1)
	g.Process(0, stream.TupleItem(stream.MustTuple(intSchema, 2, value.Int(1), value.Int(3))), 2)
	g.Process(0, stream.EOSItem(3), 3)
	g.Finish(4)
	got := sink.Tuples()
	if len(got) != 1 || !got[0].Values[1].Equal(value.Int(5)) {
		t.Errorf("int sum = %v", got)
	}
}

func TestGroupByProtocol(t *testing.T) {
	sink := &Collector{}
	g, _ := NewGroupBy(inSchema, 0, 1, AggSum, sink)
	if err := g.Finish(1); err == nil {
		t.Error("Finish before EOS should error")
	}
	if err := g.Process(1, tup(t, 1, 1, 1), 1); err == nil {
		t.Error("bad port should error")
	}
	g.Process(0, stream.EOSItem(1), 1)
	if err := g.Process(0, stream.EOSItem(2), 2); err == nil {
		t.Error("dup EOS should error")
	}
	g.Finish(3)
	if err := g.Finish(4); err == nil {
		t.Error("double Finish should error")
	}
	if did, _ := g.OnIdle(5); did {
		t.Error("group-by has no idle work")
	}
}

// --- Select ---

func TestSelect(t *testing.T) {
	sink := &Collector{}
	s, err := NewSelect(inSchema, func(tp *stream.Tuple) bool {
		return tp.Values[1].FloatVal() >= 2
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	s.Process(0, tup(t, 1, 1, 1), 1)
	s.Process(0, tup(t, 1, 3, 2), 2)
	s.Process(0, keyPunct(1, 3), 3)
	if len(sink.Tuples()) != 1 {
		t.Errorf("select kept %d tuples", len(sink.Tuples()))
	}
	if len(sink.Puncts()) != 1 {
		t.Error("select must pass punctuations through")
	}
	s.Process(0, stream.EOSItem(4), 4)
	if err := s.Finish(5); err != nil {
		t.Fatal(err)
	}
	if sink.Items[len(sink.Items)-1].Kind != stream.KindEOS {
		t.Error("EOS not forwarded")
	}
	if s.OutSchema() != inSchema || s.NumPorts() != 1 {
		t.Error("metadata wrong")
	}
}

func TestSelectValidation(t *testing.T) {
	sink := &Collector{}
	if _, err := NewSelect(nil, func(*stream.Tuple) bool { return true }, sink); err == nil {
		t.Error("nil schema should error")
	}
	if _, err := NewSelect(inSchema, nil, sink); err == nil {
		t.Error("nil predicate should error")
	}
}

// --- Project ---

func TestProjectTuplesAndPunctuations(t *testing.T) {
	sink := &Collector{}
	p, err := NewProject(inSchema, []int{1}, sink)
	if err != nil {
		t.Fatal(err)
	}
	p.Process(0, tup(t, 1, 2.5, 1), 1)
	got := sink.Tuples()
	if len(got) != 1 || got[0].Width() != 1 || !got[0].Values[0].Equal(value.Float(2.5)) {
		t.Fatalf("projected tuple = %v", got)
	}
	// Punctuation constraining only the dropped attribute: must be dropped.
	p.Process(0, keyPunct(1, 2), 2)
	if len(sink.Puncts()) != 0 {
		t.Error("unprojectable punctuation leaked")
	}
	// Punctuation constraining only the kept attribute: projects cleanly.
	pi := stream.PunctItem(punct.MustNew(punct.Star(), punct.Const(value.Float(2.5))), 3)
	p.Process(0, pi, 3)
	ps := sink.Puncts()
	if len(ps) != 1 || ps[0].Punct.Width() != 1 {
		t.Fatalf("projected punctuation = %v", ps)
	}
	p.Process(0, stream.EOSItem(4), 4)
	if err := p.Finish(5); err != nil {
		t.Fatal(err)
	}
}

func TestProjectValidation(t *testing.T) {
	sink := &Collector{}
	if _, err := NewProject(inSchema, nil, sink); err == nil {
		t.Error("empty keep should error")
	}
	if _, err := NewProject(inSchema, []int{5}, sink); err == nil {
		t.Error("out of range keep should error")
	}
	if _, err := NewProject(inSchema, []int{0, 0}, sink); err == nil {
		t.Error("duplicate keep should error")
	}
	if _, err := NewProject(nil, []int{0}, sink); err == nil {
		t.Error("nil schema should error")
	}
}
