package exec

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/parallel"
	"pjoin/internal/punct"
	"pjoin/internal/shj"
	"pjoin/internal/stream"
	"pjoin/internal/value"
	"pjoin/internal/xjoin"
)

// The tests in this file pin the tuple-lifetime contract across an edge
// (DESIGN.md §12): an edge fed by a join builds the results in the batch
// it is filling and delivers them borrowed; they are valid until the
// Process / ProcessBatch call returns; whoever keeps one goes through
// Keep (or Headers.Stamp), whoever forwards one to an edge needs nothing.

// pairer emits, for every tuple it is handed, the join of the tuple with
// itself through its output's EmitJoin: the smallest producer of
// borrowed items.
type pairer struct {
	out op.Emitter
	eos bool
}

func (p *pairer) Name() string              { return "pairer" }
func (p *pairer) NumPorts() int             { return 1 }
func (p *pairer) OutSchema() *stream.Schema { return nil }
func (p *pairer) Process(port int, it stream.Item, now stream.Time) error {
	switch it.Kind {
	case stream.KindTuple:
		return p.out.(op.JoinEmitter).EmitJoin(it.Tuple, it.Tuple)
	case stream.KindEOS:
		p.eos = true
	}
	return nil
}
func (p *pairer) OnIdle(stream.Time) (bool, error) { return false, nil }
func (p *pairer) Finish(now stream.Time) error     { return p.out.Emit(stream.EOSItem(now)) }

// hoarder breaks the contract on purpose: it keeps every tuple pointer it
// is handed as it is (raw), next to a proper Keep copy and a rendering of
// the values taken while the call was still running.
type hoarder struct {
	raw      []*stream.Tuple
	borrowed []bool
	kept     []stream.Item
	seen     []string
	keeper   stream.ResultSlab
	eos      bool
}

func (h *hoarder) Name() string              { return "hoarder" }
func (h *hoarder) NumPorts() int             { return 1 }
func (h *hoarder) OutSchema() *stream.Schema { return nil }
func (h *hoarder) Process(port int, it stream.Item, now stream.Time) error {
	switch it.Kind {
	case stream.KindTuple:
		h.raw = append(h.raw, it.Tuple)
		h.borrowed = append(h.borrowed, it.Borrowed)
		h.kept = append(h.kept, h.keeper.Keep(it))
		h.seen = append(h.seen, valuesKey(it.Tuple))
	case stream.KindEOS:
		h.eos = true
	}
	return nil
}
func (h *hoarder) OnIdle(stream.Time) (bool, error) { return false, nil }
func (h *hoarder) Finish(stream.Time) error         { return nil }

// TestBorrowedTupleDiesWithItsCall is the lifetime half of the contract.
// Eight tuples flow source → pairer → hoarder at batch 256 under a linger
// nothing reaches, so each edge cuts exactly one batch, at EOS: the
// hoarder sees eight borrowed results in one delivery. After the run a
// tuple it kept without Keep reads as the zero header (Values == nil) —
// the driver recycled the batch when the call returned — while the Keep
// copies still read what was delivered. The same plan with the hoarder
// fed straight by the source shows the other side: source items are not
// borrowed, Keep returns them as they are and the raw pointers stay good.
func TestBorrowedTupleDiesWithItsCall(t *testing.T) {
	src := items(t, 8)
	run := func(viaPairer bool) *hoarder {
		p := NewPipeline()
		p.BatchSize = 256
		p.BatchLinger = time.Hour
		in := p.Edge()
		p.SourceItems(in, src, false)
		if viaPairer {
			paired := p.Edge()
			if err := p.Spawn(&pairer{out: paired}, in); err != nil {
				t.Fatal(err)
			}
			in = paired
		}
		h := &hoarder{}
		if err := p.Spawn(h, in); err != nil {
			t.Fatal(err)
		}
		if err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(h.raw) != len(src) || !h.eos {
			t.Fatalf("hoarder saw %d tuples, EOS %v", len(h.raw), h.eos)
		}
		return h
	}

	h := run(true)
	for i, raw := range h.raw {
		if !h.borrowed[i] {
			t.Fatalf("result %d was not delivered borrowed", i)
		}
		if raw.Values != nil || raw.Ts != 0 {
			t.Errorf("result %d kept without Keep still reads %v after its call returned, want the zero header", i, raw)
		}
		k := h.kept[i]
		if k.Borrowed || k.Tuple == raw {
			t.Fatalf("result %d: Keep returned %+v", i, k)
		}
		if got := valuesKey(k.Tuple); got != h.seen[i] {
			t.Errorf("result %d: the Keep copy reads %q, was delivered as %q", i, got, h.seen[i])
		}
		want := src[i].Tuple.Join(src[i].Tuple)
		if got := valuesKey(k.Tuple); got != valuesKey(want) || k.Tuple.Ts != want.Ts {
			t.Errorf("result %d: the Keep copy is %v, want %v", i, k.Tuple, want)
		}
	}

	h = run(false)
	for i, raw := range h.raw {
		if h.borrowed[i] || raw != src[i].Tuple || h.kept[i].Tuple != raw {
			t.Fatalf("source item %d: borrowed %v, delivered %p, kept %p, want the source tuple %p throughout",
				i, h.borrowed[i], raw, h.kept[i].Tuple, src[i].Tuple)
		}
		if got := valuesKey(raw); got != h.seen[i] {
			t.Errorf("source tuple %d changed: %q, was %q", i, got, h.seen[i])
		}
	}
}

// threeStreams builds three punctuated streams over the same keys,
// perKey tuples per key and stream with unique payloads ("a3.1"), every
// stream closing a key with a punctuation right after its tuples.
func threeStreams(keys, perKey int) (a, b, c []stream.Item, scC *stream.Schema) {
	scC = stream.MustSchema("C",
		stream.Field{Name: "k", Kind: value.KindInt},
		stream.Field{Name: "pc", Kind: value.KindString},
	)
	var ts stream.Time
	next := func() stream.Time { ts++; return ts }
	for k := 0; k < keys; k++ {
		key := value.Int(int64(k))
		closed := punct.MustKeyOnly(2, 0, punct.Const(key))
		for i := 0; i < perKey; i++ {
			a = append(a, stream.TupleItem(stream.MustTuple(gen.SchemaA, next(), key, value.Str(fmt.Sprintf("a%d.%d", k, i)))))
			b = append(b, stream.TupleItem(stream.MustTuple(gen.SchemaB, next(), key, value.Str(fmt.Sprintf("b%d.%d", k, i)))))
			c = append(c, stream.TupleItem(stream.MustTuple(scC, next(), key, value.Str(fmt.Sprintf("c%d.%d", k, i)))))
		}
		a = append(a, stream.PunctItem(closed, next()))
		b = append(b, stream.PunctItem(closed, next()))
		c = append(c, stream.PunctItem(closed, next()))
	}
	return a, b, c, scC
}

// shjJoin is the brute-force reference for one join: the result tuples
// of l ⋈ r on attribute 0, through the direct-fed shj.
func shjJoin(t testing.TB, scL, scR *stream.Schema, l, r []stream.Item) []stream.Item {
	t.Helper()
	var out []stream.Item
	ref, err := shj.New(scL, scR, 0, 0, op.EmitterFunc(func(it stream.Item) error {
		if it.Kind == stream.KindTuple {
			out = append(out, it)
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	for port, items := range [][]stream.Item{l, r} {
		for _, it := range items {
			if err := ref.Process(port, it, it.Ts); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

func multisetOf(items []stream.Item) map[string]int {
	m := map[string]int{}
	for _, it := range items {
		if it.Kind == stream.KindTuple {
			m[valuesKey(it.Tuple)]++
		}
	}
	return m
}

// TestBorrowedResultsEveryShape runs every way a join's borrowed results
// are retained or forwarded — collected (Sink), forwarded by a Select and
// by a KeyPunctuator, retained by a second PJoin, routed by a
// ShardedPJoin to its shard goroutines, and produced by XJoin — against
// the brute-force shj reference, at batch {0, 1, 8, 256} × linger {0,
// 1 ms}. What the sink holds is compared after Run, when every batch has
// been recycled: a consumer that kept a borrowed tuple without Keep holds
// zeroed or overwritten results and fails its cell.
func TestBorrowedResultsEveryShape(t *testing.T) {
	a, b, c, scC := threeStreams(24, 3)
	a1, b1, _, _ := threeStreams(40, 1) // unique keys: the KeyPunctuator's constraint
	ab := shjJoin(t, gen.SchemaA, gen.SchemaB, a, b)
	pjoin := func(out op.Emitter) (op.Operator, error) {
		cfg := core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB, VerifyPunctuations: true}
		cfg.Thresholds.PropagateCount = 1
		return core.New(cfg, out)
	}
	abSchema := func() *stream.Schema {
		sc, err := gen.SchemaA.Concat("join", gen.SchemaB)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}()
	abc := multisetOf(shjJoin(t, abSchema, scC, ab, c))

	// Each shape wires what follows the first join's output edge and
	// returns the edge the sink drains.
	type shape struct {
		name    string
		a, b    []stream.Item
		first   func(out op.Emitter) (op.Operator, error)
		want    map[string]int
		wire    func(p *Pipeline, joined *Edge) (*Edge, error)
		puncts  bool // the sink must see punctuations
		checkFn func(t *testing.T, sink *op.Collector)
	}
	direct := func(p *Pipeline, joined *Edge) (*Edge, error) { return joined, nil }
	second := func(shards int) func(p *Pipeline, joined *Edge) (*Edge, error) {
		return func(p *Pipeline, joined *Edge) (*Edge, error) {
			srcC, out := p.Edge(), p.Edge()
			cfg := core.Config{SchemaA: abSchema, SchemaB: scC, VerifyPunctuations: true}
			var j2 op.Operator
			var err error
			if shards > 1 {
				j2, err = parallel.New(parallel.Config{Shards: shards, Join: cfg}, out)
			} else {
				j2, err = core.New(cfg, out)
			}
			if err != nil {
				return nil, err
			}
			p.SourceItems(srcC, c, false)
			return out, p.Spawn(j2, joined, srcC)
		}
	}
	shapes := []shape{
		{name: "pjoin_sink", a: a, b: b, first: pjoin, want: multisetOf(ab), wire: direct, puncts: true},
		{name: "pjoin_select_sink", a: a, b: b, first: pjoin, want: multisetOf(ab), puncts: true,
			wire: func(p *Pipeline, joined *Edge) (*Edge, error) {
				out := p.Edge()
				sel, err := op.NewSelect(abSchema, func(*stream.Tuple) bool { return true }, out)
				if err != nil {
					return nil, err
				}
				return out, p.Spawn(sel, joined)
			}},
		{name: "pjoin_keypunct_sink", a: a1, b: b1, first: pjoin, puncts: true,
			want: multisetOf(shjJoin(t, gen.SchemaA, gen.SchemaB, a1, b1)),
			wire: func(p *Pipeline, joined *Edge) (*Edge, error) {
				out := p.Edge()
				kp, err := op.NewKeyPunctuator(abSchema, 0, out)
				if err != nil {
					return nil, err
				}
				return out, p.Spawn(kp, joined)
			},
			checkFn: func(t *testing.T, sink *op.Collector) {
				// Every result is followed by the punctuation derived from it.
				for i, it := range sink.Items {
					if it.Kind != stream.KindTuple {
						continue
					}
					if i+1 == len(sink.Items) || sink.Items[i+1].Kind != stream.KindPunct ||
						!sink.Items[i+1].Punct.Matches(it.Tuple.Values) {
						t.Fatalf("result %v is not followed by its key punctuation", it.Tuple)
					}
				}
			}},
		{name: "pjoin_pjoin", a: a, b: b, first: pjoin, want: abc, wire: second(1), puncts: true},
		{name: "pjoin_sharded", a: a, b: b, first: pjoin, want: abc, wire: second(2), puncts: true},
		{name: "xjoin_sink", a: a, b: b, want: multisetOf(ab), wire: direct,
			first: func(out op.Emitter) (op.Operator, error) {
				return xjoin.New(xjoin.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB, MemoryBytes: 2 << 10}, out)
			}},
	}
	for _, sh := range shapes {
		if len(sh.want) == 0 {
			t.Fatalf("%s: the reference joins nothing", sh.name)
		}
		for _, batch := range []int{0, 1, 8, 256} {
			for _, linger := range []time.Duration{0, time.Millisecond} {
				t.Run(fmt.Sprintf("%s_batch%d_linger%v", sh.name, batch, linger), func(t *testing.T) {
					p := NewPipeline()
					p.BatchSize = batch
					p.BatchLinger = linger
					srcA, srcB, joined := p.Edge(), p.Edge(), p.Edge()
					j, err := sh.first(joined)
					if err != nil {
						t.Fatal(err)
					}
					p.SourceItems(srcA, sh.a, false)
					p.SourceItems(srcB, sh.b, false)
					if err := p.Spawn(j, srcA, srcB); err != nil {
						t.Fatal(err)
					}
					last, err := sh.wire(p, joined)
					if err != nil {
						t.Fatal(err)
					}
					sink := p.Sink(last)
					if err := p.Run(context.Background()); err != nil {
						t.Fatal(err)
					}
					for i, it := range sink.Items {
						if it.Borrowed {
							t.Fatalf("sink item %d is still borrowed", i)
						}
						if (it.Kind == stream.KindEOS) != (i == len(sink.Items)-1) {
							t.Fatalf("sink item %d of %d is %v; want EOS exactly once, last", i, len(sink.Items), it.Kind)
						}
					}
					diffMultisets(t, multisetOf(sink.Items), sh.want)
					if sh.puncts && len(sink.Puncts()) == 0 {
						t.Error("no punctuation reached the sink")
					}
					if sh.checkFn != nil {
						sh.checkFn(t, sink)
					}
					if gets, puts := p.pool.Stats(); gets != puts {
						t.Errorf("pool: %d gets, %d puts after a clean run", gets, puts)
					}
				})
			}
		}
	}
}
