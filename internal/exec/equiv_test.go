package exec

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/joinbase"
	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/shj"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// tsAudit wraps the operator under test and checks the driver's
// restamping contract on what it is handed: one strictly increasing
// timestamp sequence across all ports, at every batch size. maxLen is
// the largest batch delivered.
type tsAudit struct {
	op.Operator
	last   stream.Time
	maxLen int
}

func (a *tsAudit) ProcessBatch(port int, items []stream.Item, now stream.Time) error {
	a.maxLen = max(a.maxLen, len(items))
	for _, it := range items {
		if it.Ts <= a.last {
			return fmt.Errorf("port %d: %v stamped %d after %d", port, it.Kind, it.Ts, a.last)
		}
		a.last = it.Ts
	}
	return op.ProcessAll(a.Operator, port, items)
}

// TestBatchedPipelineEquivalence pins that the batch size is a value, not
// a mode. The same workload runs through every cell of BatchSize {0, 1,
// 8, 256} × linger {0, 1 ms}, plus batch 64 at 1 ms; joined value
// multisets and propagated punctuation multisets must match the first
// cell exactly (live restamps differ, so timestamps are excluded), EOS
// reaches the sink exactly once and last, and the join is handed strictly
// increasing timestamps in batches no larger than the batch size.
// BatchSize 0 and 1 are the same cell twice: both deliver batches of one.
// The join's own accounting holds in every cell too: each propagated
// punctuation's delay is recorded once, every delivery is counted as a
// batch, and where every Emit cuts (batch <= 1 or linger 0) the mean batch
// fill is exactly 1.
func TestBatchedPipelineEquivalence(t *testing.T) {
	a, b := splitSynthetic(t, 17, 600, 8)

	run := func(batch int, linger time.Duration) (map[string]int, map[string]int) {
		p := NewPipeline()
		p.BatchSize = batch
		p.BatchLinger = linger
		srcA, srcB, out := p.Edge(), p.Edge(), p.Edge()
		cfg := core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB}
		cfg.Thresholds.PropagateCount = 1
		j, err := core.New(cfg, out)
		if err != nil {
			t.Fatal(err)
		}
		p.SourceItems(srcA, a, false)
		p.SourceItems(srcB, b, false)
		audit := &tsAudit{Operator: j}
		if err := p.Spawn(audit, srcA, srcB); err != nil {
			t.Fatal(err)
		}
		sink := p.Sink(out)
		if err := p.Run(context.Background()); err != nil {
			t.Fatalf("batch=%d linger=%v: %v", batch, linger, err)
		}
		if audit.maxLen > max(batch, 1) {
			t.Errorf("batch=%d linger=%v: delivered a batch of %d items",
				batch, linger, audit.maxLen)
		}
		for i, it := range sink.Items {
			if (it.Kind == stream.KindEOS) != (i == len(sink.Items)-1) {
				t.Errorf("batch=%d linger=%v: sink item %d of %d is %v; want EOS exactly once, last",
					batch, linger, i, len(sink.Items), it.Kind)
			}
		}
		m, lat := j.Metrics(), j.Latencies()
		if lat.PunctDelay.Count != m.PunctsOut {
			t.Errorf("batch=%d linger=%v: PunctDelay.Count=%d, PunctsOut=%d: a propagation went unmeasured",
				batch, linger, lat.PunctDelay.Count, m.PunctsOut)
		}
		if fill := lat.BatchFill.Mean(); m.Batches <= 0 || ((batch <= 1 || linger == 0) && fill != 1) {
			t.Errorf("batch=%d linger=%v: %d batches, mean fill %v; want batches, and fill exactly 1 when every Emit cuts",
				batch, linger, m.Batches, fill)
		}
		vals := map[string]int{}
		for _, tp := range sink.Tuples() {
			vals[valuesKey(tp)]++
		}
		puncts := map[string]int{}
		for _, it := range sink.Puncts() {
			puncts[it.Punct.String()]++
		}
		return vals, puncts
	}

	type cell struct {
		batch  int
		linger time.Duration
	}
	var cells []cell
	for _, batch := range []int{0, 1, 8, 256} {
		for _, linger := range []time.Duration{0, time.Millisecond} {
			cells = append(cells, cell{batch, linger})
		}
	}
	cells = append(cells, cell{64, time.Millisecond})
	diff := func(t *testing.T, name string, got, want map[string]int) {
		t.Helper()
		for k, n := range want {
			if got[k] != n {
				t.Errorf("%s %q: first cell %d, this cell %d", name, k, n, got[k])
			}
		}
		if len(got) != len(want) {
			t.Errorf("distinct %s: first cell %d, this cell %d", name, len(want), len(got))
		}
	}
	var wantVals, wantPuncts map[string]int
	for i, c := range cells {
		vals, puncts := run(c.batch, c.linger)
		if i == 0 {
			wantVals, wantPuncts = vals, puncts
			if len(wantVals) == 0 || len(wantPuncts) == 0 {
				t.Fatalf("first cell: %d results, %d punct patterns", len(wantVals), len(wantPuncts))
			}
		}
		t.Run(fmt.Sprintf("batch%d_linger%v", c.batch, c.linger), func(t *testing.T) {
			diff(t, "result", vals, wantVals)
			diff(t, "punct", puncts, wantPuncts)
		})
	}
}

// arrivalAudit passes everything through to the join it wraps and
// records the executor's arrival stamp of every tuple, by port and
// payload.
type arrivalAudit struct {
	op.Operator
	arrived [2]map[string]stream.Time
}

func newArrivalAudit(j op.Operator) *arrivalAudit {
	return &arrivalAudit{Operator: j, arrived: [2]map[string]stream.Time{{}, {}}}
}

func (a *arrivalAudit) ProcessBatch(port int, items []stream.Item, now stream.Time) error {
	for _, it := range items {
		if it.Kind == stream.KindTuple {
			a.arrived[port][it.Tuple.Values[1].StrVal()] = it.Ts
		}
	}
	return op.ProcessAll(a.Operator, port, items)
}

// TestResultTsIsLaterPartnersArrival drives every join that retains
// tuples through the live executor and checks, result by result, that
// Ts is the later partner's executor arrival stamp — for memory-probe
// results and for the left-over joins the disk passes produce. The
// generated tuples carry virtual timestamps the executor never assigns,
// so a join that reads a stale it.Tuple.Ts instead of it.Ts fails here
// (an XJoin that skipped the ingress stamp passed every other test).
func TestResultTsIsLaterPartnersArrival(t *testing.T) {
	a, b := splitSynthetic(t, 23, 1200, 10)
	want := shjMultiset(t, a, b)
	if len(want) == 0 {
		t.Fatal("workload joins nothing")
	}

	type metered interface{ Metrics() joinbase.Metrics }
	joins := []struct {
		name  string
		spill bool
		build func(out op.Emitter) (op.Operator, error)
	}{
		{"pjoin", false, func(out op.Emitter) (op.Operator, error) {
			return core.New(core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB}, out)
		}},
		{"xjoin_spill", true, func(out op.Emitter) (op.Operator, error) {
			return core.NewXJoin(core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB, Thresholds: core.Thresholds{MemoryBytes: 4 << 10}}, out)
		}},
		{"xjoin_spill_chunked", true, func(out op.Emitter) (op.Operator, error) {
			return core.NewXJoin(core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB, Thresholds: core.Thresholds{MemoryBytes: 4 << 10}, DiskChunkBytes: 512}, out)
		}},
		{"pjoin_spill", true, func(out op.Emitter) (op.Operator, error) {
			cfg := core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB}
			cfg.Thresholds.MemoryBytes = 4 << 10
			return core.New(cfg, out)
		}},
	}
	for _, jn := range joins {
		for _, batch := range []int{1, 256} {
			t.Run(fmt.Sprintf("%s_batch%d", jn.name, batch), func(t *testing.T) {
				p := NewPipeline()
				p.BatchSize = batch
				srcA, srcB, out := p.Edge(), p.Edge(), p.Edge()
				j, err := jn.build(out)
				if err != nil {
					t.Fatal(err)
				}
				audit := newArrivalAudit(j)
				p.SourceItems(srcA, a, false)
				p.SourceItems(srcB, b, false)
				if err := p.Spawn(audit, srcA, srcB); err != nil {
					t.Fatal(err)
				}
				sink := p.Sink(out)
				if err := p.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
				got := map[string]int{}
				bad := 0
				for _, it := range sink.Items {
					if it.Kind != stream.KindTuple {
						continue
					}
					res := it.Tuple
					got[valuesKey(res)]++
					pa, pb := res.Values[1].StrVal(), res.Values[3].StrVal()
					later := max(audit.arrived[0][pa], audit.arrived[1][pb])
					if later == 0 {
						t.Fatalf("result %s joins a tuple the audit never saw", res)
					}
					if (res.Ts != later || it.Ts != later) && bad < 5 {
						bad++
						t.Errorf("result (%s, %s): tuple Ts %d, item Ts %d, want the later arrival %d (A at %d, B at %d)",
							pa, pb, res.Ts, it.Ts, later, audit.arrived[0][pa], audit.arrived[1][pb])
					}
				}
				diffMultisets(t, got, want)
				if m := j.(metered).Metrics(); jn.spill && (m.Relocations == 0 || m.DiskJoins == 0) {
					t.Errorf("spill variant produced no left-over joins: %d relocations, %d disk joins", m.Relocations, m.DiskJoins)
				}
			})
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
// of l ⋈ r on attribute 0, through the direct-fed shj. Its results are
// borrowed, so the ones returned are Keep'd copies.
func shjJoin(t testing.TB, scL, scR *stream.Schema, l, r []stream.Item) []stream.Item {
	t.Helper()
	var (
		out  []stream.Item
		kept stream.ResultSlab
	)
	ref, err := shj.New(scL, scR, 0, 0, op.EmitterFunc(func(it stream.Item) error {
		if it.Kind == stream.KindTuple {
			out = append(out, kept.Keep(it))
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
// by a KeyPunctuator, retained by a second PJoin, and produced by XJoin —
// against
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
	second := func(p *Pipeline, joined *Edge) (*Edge, error) {
		srcC, out := p.Edge(), p.Edge()
		j2, err := core.New(core.Config{SchemaA: abSchema, SchemaB: scC, VerifyPunctuations: true}, out)
		if err != nil {
			return nil, err
		}
		p.SourceItems(srcC, c, false)
		return out, p.Spawn(j2, joined, srcC)
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
		{name: "pjoin_pjoin", a: a, b: b, first: pjoin, want: abc, wire: second, puncts: true},
		{name: "xjoin_sink", a: a, b: b, want: multisetOf(ab), wire: direct,
			first: func(out op.Emitter) (op.Operator, error) {
				return core.NewXJoin(core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB, Thresholds: core.Thresholds{MemoryBytes: 2 << 10}}, out)
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
