package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/shj"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// The tests in this file pin the timestamp-ownership contract: tuples
// are immutable and shared, arrival time is Item.Ts, an operator that
// retains a tuple keeps the arrival time beside it, and a join result's
// Ts is the later partner's arrival.

// splitSynthetic generates a punctuated two-stream workload and returns
// each port's items. Payloads ("A17", "B4") identify tuples uniquely.
func splitSynthetic(t testing.TB, seed uint64, tuples int, punctMean float64) (a, b []stream.Item) {
	t.Helper()
	return splitSyntheticEvery(t, seed, tuples, punctMean, stream.Millisecond)
}

// splitSyntheticEvery is splitSynthetic with tuples tupleMean apart on
// each side.
func splitSyntheticEvery(t testing.TB, seed uint64, tuples int, punctMean float64, tupleMean stream.Time) (a, b []stream.Item) {
	t.Helper()
	arrs, err := gen.Synthetic(gen.Config{
		Seed:      seed,
		MaxTuples: tuples,
		Duration:  1 << 62,
		A:         gen.SideSpec{TupleMean: tupleMean, PunctMean: punctMean},
		B:         gen.SideSpec{TupleMean: tupleMean, PunctMean: punctMean},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ar := range arrs {
		if ar.Port == 0 {
			a = append(a, ar.Item)
		} else {
			b = append(b, ar.Item)
		}
	}
	return a, b
}

func valuesKey(t *stream.Tuple) string {
	var sb strings.Builder
	for _, v := range t.Values {
		sb.WriteString(v.String())
		sb.WriteByte('|')
	}
	return sb.String()
}

// shjMultiset is the brute-force reference: the joined value multiset of
// the two inputs.
func shjMultiset(t testing.TB, a, b []stream.Item) map[string]int {
	t.Helper()
	want := map[string]int{}
	ref, err := shj.New(gen.SchemaA, gen.SchemaB, gen.KeyAttr, gen.KeyAttr, op.EmitterFunc(func(it stream.Item) error {
		if it.Kind == stream.KindTuple {
			want[valuesKey(it.Tuple)]++
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	for port, items := range [][]stream.Item{a, b} {
		for _, it := range items {
			if err := ref.Process(port, it, it.Ts); err != nil {
				t.Fatal(err)
			}
		}
	}
	return want
}

func diffMultisets(t *testing.T, got, want map[string]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Errorf("result %q: got %d, want %d", k, got[k], n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("distinct results: got %d, want %d", len(got), len(want))
	}
}

// terminal is a counting terminal operator: it consumes tuples and emits
// nothing. seen, when non-nil, collects the value multiset.
type terminal struct {
	in     *stream.Schema
	tuples int
	seen   map[string]int
	eos    bool
}

func (c *terminal) Name() string              { return "terminal" }
func (c *terminal) NumPorts() int             { return 1 }
func (c *terminal) OutSchema() *stream.Schema { return c.in }

func (c *terminal) Process(port int, it stream.Item, now stream.Time) error {
	switch it.Kind {
	case stream.KindTuple:
		c.tuples++
		if c.seen != nil {
			c.seen[valuesKey(it.Tuple)]++
		}
	case stream.KindEOS:
		c.eos = true
	}
	return nil
}

func (c *terminal) OnIdle(stream.Time) (bool, error) { return false, nil }

func (c *terminal) Finish(now stream.Time) error {
	if !c.eos {
		return fmt.Errorf("terminal: Finish before EOS")
	}
	return nil
}

// TestPipelinesLeaveSharedInputUntouched runs one []stream.Item input
// through a series of pipelines: sources → PJoin → select → terminal, plus
// a third source lending A's items to a Sink that reads its edge directly.
// The sources run unpaced and paced, at batch {1, 256} × linger {0, 1 ms},
// and twice cancelled mid-stream. A source lends its input (its edge
// carries views of the caller's slice) and the benchmark and every
// replaying caller reuse one generated input across runs, so the executor
// and the operators must treat it as read-only: after each run every
// item's Kind, Ts, Tuple, Punct and Span and every tuple's Ts, Span and
// Values are what they were, every complete run joins the reference
// multiset, and the Sink got A's items as they are, then one EOS.
// Restamping a lent view in place fails it at the first run, and so does
// a recycle that clears a lent view, or restamping the shared tuple in
// place instead of Item.Ts.
func TestPipelinesLeaveSharedInputUntouched(t *testing.T) {
	// Tuples 10 µs apart on each side keep a paced run to a few
	// milliseconds while a 1 ms linger still cuts runs.
	a, b := splitSyntheticEvery(t, 29, 800, 12, stream.Millisecond/100)
	type frozen struct {
		item  stream.Item
		ts    stream.Time
		span  uint64
		vals  []value.Value
		first *value.Value
	}
	var before []frozen
	for _, items := range [][]stream.Item{a, b} {
		for _, it := range items {
			f := frozen{item: it}
			if it.Kind == stream.KindTuple {
				f.ts, f.span = it.Tuple.Ts, it.Tuple.Span
				f.vals = append([]value.Value(nil), it.Tuple.Values...)
				f.first = &it.Tuple.Values[0]
			}
			before = append(before, f)
		}
	}
	same := func(it, was stream.Item) bool {
		return it.Kind == was.Kind && it.Borrowed == was.Borrowed && it.Ts == was.Ts &&
			it.Tuple == was.Tuple && it.Punct.Equal(was.Punct) && it.Span == was.Span
	}
	untouched := func(t *testing.T) {
		t.Helper()
		i := 0
		for _, items := range [][]stream.Item{a, b} {
			for _, it := range items {
				f := before[i]
				i++
				if !same(it, f.item) {
					t.Fatalf("input item %d changed: %v stamped %d, was %v stamped %d", i-1, it, it.Ts, f.item, f.item.Ts)
				}
				if it.Kind != stream.KindTuple {
					continue
				}
				tp := f.item.Tuple
				if tp.Ts != f.ts || tp.Span != f.span || len(tp.Values) != len(f.vals) || &tp.Values[0] != f.first {
					t.Fatalf("source tuple %d header changed: %v span %d, was Ts %d span %d", i-1, tp, tp.Span, f.ts, f.span)
				}
				for k, v := range tp.Values {
					if !v.Equal(f.vals[k]) {
						t.Fatalf("source tuple %d value %d changed: %v, was %v", i-1, k, v, f.vals[k])
					}
				}
			}
		}
	}
	want := shjMultiset(t, a, b)
	if len(want) == 0 {
		t.Fatal("workload joins nothing")
	}

	type cell struct {
		paced  bool
		batch  int
		linger time.Duration
		cancel bool // cancel the run once the join has been handed a quarter of its input
	}
	var cells []cell
	for _, paced := range []bool{false, true} {
		for _, batch := range []int{1, 256} {
			for _, linger := range []time.Duration{0, time.Millisecond} {
				cells = append(cells, cell{paced, batch, linger, false})
			}
		}
	}
	cells = append(cells, cell{true, 256, time.Millisecond, true}, cell{false, 1, 0, true})
	for _, c := range cells {
		t.Run(fmt.Sprintf("paced%v_batch%d_linger%v_cancel%v", c.paced, c.batch, c.linger, c.cancel), func(t *testing.T) {
			p := NewPipeline()
			p.BatchSize = c.batch
			p.BatchLinger = c.linger
			srcA, srcB, srcC, joined, selected := p.Edge(), p.Edge(), p.Edge(), p.Edge(), p.Edge()
			cfg := core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB}
			cfg.Thresholds.PropagateCount = 1
			j, err := core.New(cfg, joined)
			if err != nil {
				t.Fatal(err)
			}
			sel, err := op.NewSelect(j.OutSchema(), func(*stream.Tuple) bool { return true }, selected)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var join op.Operator = j
			if c.cancel {
				join = &cancelAfter{Operator: j, n: (len(a) + len(b)) / 4, cancel: cancel}
			}
			seen := map[string]int{}
			p.SourceItems(srcA, a, c.paced)
			p.SourceItems(srcB, b, c.paced)
			p.SourceItems(srcC, a, c.paced)
			sink := p.Sink(srcC)
			for _, err := range []error{
				p.Spawn(join, srcA, srcB), p.Spawn(sel, joined), p.Spawn(&terminal{in: j.OutSchema(), seen: seen}, selected),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
			err = p.Run(ctx)
			untouched(t)
			if c.cancel {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			diffMultisets(t, seen, want)
			if n := len(sink.Items); n != len(a)+1 || sink.Items[n-1].Kind != stream.KindEOS {
				t.Fatalf("the sink got %d items, want A's %d and an EOS", n, len(a))
			}
			for i, it := range sink.Items[:len(a)] {
				if !same(it, a[i]) {
					t.Fatalf("the sink's item %d is %v, want A's %v", i, it, a[i])
				}
			}
		})
	}
}

// cancelAfter passes everything to the operator it wraps and cancels the
// run once it has been handed n items.
type cancelAfter struct {
	op.Operator
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) ProcessBatch(port int, items []stream.Item, now stream.Time) error {
	if c.n -= len(items); c.n <= 0 {
		c.cancel()
	}
	return op.ProcessAll(c.Operator, port, items)
}

// fanoutInput builds two streams in fanoutWaves waves of fanoutKeys fresh
// keys, fanoutPerKey tuples per key and side, each side closing every key
// of a wave with a punctuation when the wave ends: fanoutWaves ×
// fanoutKeys × fanoutPerKey² results, the average arrival matching about
// 26 stored partners, and a state that purges and recycles wave by wave —
// the fanout_sat shape.
const fanoutWaves, fanoutKeys, fanoutPerKey = 8, 16, 52

const fanoutResults = fanoutWaves * fanoutKeys * fanoutPerKey * fanoutPerKey

func fanoutInput() (a, b []stream.Item) {
	return fanoutInputOf(fanoutWaves, fanoutKeys, fanoutPerKey)
}

// fanoutInputOf is fanoutInput at any size: waves × keys × perKey² results.
func fanoutInputOf(waves, keys, perKey int) (a, b []stream.Item) {
	ts := stream.Time(0)
	for w := 0; w < waves; w++ {
		for i := 0; i < keys*perKey; i++ {
			k := value.Int(int64(w*keys + i%keys))
			ts++
			a = append(a, stream.TupleItem(stream.MustTuple(gen.SchemaA, ts, k, value.Str("a"))))
			ts++
			b = append(b, stream.TupleItem(stream.MustTuple(gen.SchemaB, ts, k, value.Str("b"))))
		}
		for i := 0; i < keys; i++ {
			closed := punct.MustKeyOnly(2, gen.KeyAttr, punct.Const(value.Int(int64(w*keys+i))))
			ts++
			a = append(a, stream.PunctItem(closed, ts))
			ts++
			b = append(b, stream.PunctItem(closed, ts))
		}
	}
	return a, b
}

// pairInput is a fan-out 1 input: keys keys, two tuples per key and
// side, no punctuation — four results per key, one per input tuple, and a
// state that keeps every tuple.
func pairInput(keys int) (a, b []stream.Item) {
	ts := stream.Time(0)
	for i := 0; i < 2*keys; i++ {
		k := value.Int(int64(i % keys))
		ts++
		a = append(a, stream.TupleItem(stream.MustTuple(gen.SchemaA, ts, k, value.Str("a"))))
		ts++
		b = append(b, stream.TupleItem(stream.MustTuple(gen.SchemaB, ts, k, value.Str("b"))))
	}
	return a, b
}

// runFanout runs the join of a and b, which make want results, at batch
// 256 (1 ms linger: without one every Emit cuts a batch of one) with
// consume attached to the join's output edge, checks the consumer's
// result count, and returns what the whole Run allocated — goroutines,
// edges, state, index and pooled batches included — per result. One run
// is enough: how far one racing source gets ahead of the other still
// decides how much state the join builds, but index nodes now come 256 to
// a chunk and an edge owns at most edgeInFlight batches, so the count no
// longer follows it (0.0033 to 0.0038 allocations per dropped result over
// twenty runs of fanoutInput; it was 2,900 to 8,200 objects a run when
// every node was one).
func runFanout(t *testing.T, a, b []stream.Item, want int, consume func(p *Pipeline, joined *Edge, out *stream.Schema) (results func() int)) (allocs, bytes float64) {
	t.Helper()
	p := NewPipeline()
	p.BatchSize = 256
	p.BatchLinger = time.Millisecond
	srcA, srcB, joined := p.Edge(), p.Edge(), p.Edge()
	j, err := core.New(core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB}, joined)
	if err != nil {
		t.Fatal(err)
	}
	p.SourceItems(srcA, a, false)
	p.SourceItems(srcB, b, false)
	if err := p.Spawn(j, srcA, srcB); err != nil {
		t.Fatal(err)
	}
	results := consume(p, joined, j.OutSchema())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := results(); got != want {
		t.Fatalf("%d results, want %d", got, want)
	}
	allocs = float64(after.Mallocs-before.Mallocs) / float64(want)
	bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(want)
	t.Logf("%d inputs, %d results (fan-out %.1f): %.4f allocations and %.1f B per result",
		len(a)+len(b), want, float64(want)/float64(len(a)+len(b)), allocs, bytes)
	return allocs, bytes
}

// TestPipelineAllocsPerResult is the end-to-end allocation guard for the
// dataflow around the probe, and for the reuse path in particular: a
// fan-out ≈ 26 join into a counting terminal operator. The edge builds
// the results in the batch it is filling and the batch comes back through
// the edge's lane, so a result the consumer drops is no heap object at
// all: the whole Run stays under 0.01 allocations and 4 B per result. It
// reads 0.003 and 3.2 to 3.4 B at GOMAXPROCS 1 to 16 (2.1 to 3.1 B under
// -race), what the edges' batches and their value chunks cost while they
// grow; 4.1 to 4.4 B while a Value was 32 bytes, which the bound fails
// (it read 2.9 and 3.8 B once each in 37 runs). It read 5.5 to 5.7 B
// while each source copied its input into batches of its own, up to
// edgeInFlight per source edge; 6.6 B while an Item was 64 bytes; 8.8 B
// while every stored live tuple also had a 40-byte arrival-stamped
// header: at fan-out 26 that is 1.6 B of a result, which
// TestPipelineAllocsPerInput sees whole; 0.012 allocations before index
// nodes came from slabs. With heap-built results (2 allocations and 5.4
// KB per chunk of 31, what every plain emitter still gets) the same run
// read 0.072 and 202 B, and one tuple copy per hop or one Tuple.Join per
// result is 1 to 3 allocations.
func TestPipelineAllocsPerResult(t *testing.T) {
	fa, fb := fanoutInput()
	allocs, bytes := runFanout(t, fa, fb, fanoutResults, countResults(t))
	if allocs > 0.01 || bytes > 4 {
		t.Errorf("%.4f allocations and %.1f B per result, want at most 0.01 and 4", allocs, bytes)
	}
}

// countResults attaches a counting terminal operator to the join's
// output edge.
func countResults(t *testing.T) func(p *Pipeline, joined *Edge, out *stream.Schema) func() int {
	return func(p *Pipeline, joined *Edge, out *stream.Schema) func() int {
		count := &terminal{in: out}
		if err := p.Spawn(count, joined); err != nil {
			t.Fatal(err)
		}
		return func() int { return count.tuples }
	}
}

// TestPipelineAllocsPerInput is the guard of what the join keeps of each
// arrival: the dropped-result run at fan-out 1 (pairInput over 8,192
// keys), where one result per input tuple leaves the state's own storage —
// wrappers, index nodes, groups, slot tables — most of what a Run
// allocates. Results equal inputs here, so bytes per result are bytes per
// input tuple. The largest of three readings is 162.9 to 163.8 B over
// ten tests, and 0.052 allocations (144 to 146 B under -race). The bound
// keeps a 7 B margin. While a Value was 32 bytes, so a stored tuple's
// two values and each result's four took twice the room, the largest
// read 178.6 to 180.7 B (some readings lower, down to 153 B), which the
// bound fails. While each source copied its input into batches of its own
// — up to edgeInFlight 256-item arrays per source edge, 13.6 KB each — it
// read 191.9 to 193.9 B over ten runs at GOMAXPROCS 2 (174 to 201 B at an
// older commit, as many batches as the racing sources left in flight);
// while every stored live tuple also had a 40-byte header stamped with its
// arrival time, 256 to a chunk, it read 237 to 239 B and 0.056.
//
// The test runs at GOMAXPROCS 2 whatever -cpu asks for, and checks the
// largest of three readings. Part of what a run allocates follows the
// schedule: at 4 and more Ps a copying source read 177 to 193 B, and a
// lending one as low as 160 B at 8. Pinned to 2, a lending source read
// 170.3 to 180.1 B in 60 runs; a copying one mostly 191.9 to 193.9 B but
// as low as 166.7 B, and the largest of its three readings fell below
// the bound in 1 of 75 tests.
func TestPipelineAllocsPerInput(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	a, b := pairInput(8192)
	var allocs, bytes float64
	for range 3 {
		n, nb := runFanout(t, a, b, 8192*4, countResults(t))
		allocs, bytes = max(allocs, n), max(bytes, nb)
	}
	if allocs > 0.06 || bytes > 171 {
		t.Errorf("%.4f allocations and %.1f B per input tuple, want at most 0.06 and 171", allocs, bytes)
	}
}

// TestPipelineAllocsPerKeptResult is the twin with a consumer that keeps
// every result (Pipeline.Sink): it pays the one copy Collector makes of a
// borrowed tuple — chunked, 2 allocations per 31 results like the heap
// results it replaces — on top of the collector's own growth, and no more
// than the same run cost when the join built every result on the heap
// (0.0725 to 0.08 allocations and 371 B per result): 0.067 and 256 B, the
// same every run at GOMAXPROCS 1 to 16 and under -race (a chunk is 31
// results, not 32, and wastes no size class; 323 B while a Value was 32
// bytes, which the bound fails; 324.4 B while each source copied its
// input into batches of its own; 374 B while an Item was 64 bytes, 376 B
// with the arrival-stamped headers the state no longer makes). The
// collector's growth of 48 B Items is the largest share of the bytes
// (48%), its chunked copies (107 B a result) the next; the byte bound
// keeps a 12 B margin over the reading.
func TestPipelineAllocsPerKeptResult(t *testing.T) {
	fa, fb := fanoutInput()
	allocs, bytes := runFanout(t, fa, fb, fanoutResults, func(p *Pipeline, joined *Edge, _ *stream.Schema) func() int {
		sink := p.Sink(joined)
		return func() int { return len(sink.Tuples()) }
	})
	if allocs > 0.075 || bytes > 268 {
		t.Errorf("%.4f allocations and %.1f B per result, want at most 0.075 and 268", allocs, bytes)
	}
}

// TestRestampDoesNotAllocate pins the driver's restamp loop at zero
// allocations on a batch mixing every item kind, and checks what it
// writes: consecutive stamps on the items, nothing on the tuples.
func TestRestampDoesNotAllocate(t *testing.T) {
	batch := items(t, 254)
	batch = append(batch,
		stream.PunctItem(punct.MustKeyOnly(2, 0, punct.Const(value.Int(1))), 3),
		stream.EOSItem(4))
	tupleTs := batch[0].Tuple.Ts
	allocs := testing.AllocsPerRun(100, func() {
		if eos := restamp(nil, 0, batch, 1000); eos != 1 {
			t.Fatalf("counted %d EOS items, want 1", eos)
		}
	})
	if allocs != 0 {
		t.Errorf("restamping a %d-item batch allocates %.1f objects, want 0", len(batch), allocs)
	}
	for i, it := range batch {
		if it.Ts != 1000+stream.Time(i) {
			t.Fatalf("item %d stamped %d, want %d", i, it.Ts, 1000+i)
		}
	}
	if batch[0].Tuple.Ts != tupleTs {
		t.Errorf("restamp wrote the tuple: Ts %d, was %d", batch[0].Tuple.Ts, tupleTs)
	}
}
