package pjoin

// Repository-level benchmarks. Two groups:
//
//   - BenchmarkFigNN / BenchmarkTable1: one bench per table and figure of
//     the paper's evaluation. Each iteration regenerates the experiment
//     at the quick horizon; `go test -bench 'Fig|Table'` therefore
//     re-derives every chart of the paper (the full-resolution versions
//     are produced by cmd/pjoinbench).
//   - micro benchmarks for the hot paths the cost model prices: memory
//     probes, punctuation set matching, purge scans, tuple encoding, and
//     end-to-end operator throughput.

import (
	"testing"

	"pjoin/internal/bench"
	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/shj"
	"pjoin/internal/sim"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(bench.RunConfig{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if rep == nil || rep.ID == "" {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkFig05(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig06(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig07(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig08(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig09(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)  { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)  { benchExperiment(b, "fig14") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

func BenchmarkAblationIndex(b *testing.B) { benchExperiment(b, "abl-index") }
func BenchmarkExtWindow(b *testing.B)     { benchExperiment(b, "ext-window") }

// --- micro benchmarks ---

func synthTuples(n int, keys int) []stream.Item {
	out := make([]stream.Item, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, stream.TupleItem(stream.MustTuple(gen.SchemaA,
			stream.Time(i+1), value.Int(int64(i%keys)), value.Str("payload"))))
	}
	return out
}

// BenchmarkMemoryProbe measures the memory-join hot path: one arrival
// probing a populated opposite state and being inserted.
func BenchmarkMemoryProbe(b *testing.B) {
	sink := op.EmitterFunc(func(stream.Item) error { return nil })
	j, err := core.New(core.Config{
		SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
	}, sink)
	if err != nil {
		b.Fatal(err)
	}
	// Preload side B with 10k tuples over 1k keys.
	for i, it := range synthTuplesB(10_000, 1_000) {
		if err := j.Process(1, it, stream.Time(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	items := synthTuples(b.N, 1_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := items[i]
		it.Tuple.Ts = stream.Time(20_000 + i)
		if err := j.Process(0, it, it.Tuple.Ts); err != nil {
			b.Fatal(err)
		}
	}
}

func synthTuplesB(n int, keys int) []stream.Item {
	out := make([]stream.Item, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, stream.TupleItem(stream.MustTuple(gen.SchemaB,
			stream.Time(i+1), value.Int(int64(i%keys)), value.Str("payload"))))
	}
	return out
}

// BenchmarkPunctSetMatch measures the drop-on-the-fly predicate against
// a large constant-punctuation set (the keyed fast path).
func BenchmarkPunctSetMatch(b *testing.B) {
	set := punct.NewKeyedSet(0, false)
	for k := int64(0); k < 10_000; k++ {
		if _, err := set.Add(punct.MustKeyOnly(2, 0, punct.Const(value.Int(k)))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if set.SetMatchAttr(0, value.Int(int64(i%20_000))) {
			hits++
		}
	}
	if hits == 0 && b.N > 1 {
		b.Fatal("no hits; benchmark is broken")
	}
}

// BenchmarkPurgeScan measures one eager purge over a 10k-tuple state.
func BenchmarkPurgeScan(b *testing.B) {
	sink := op.EmitterFunc(func(stream.Item) error { return nil })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		j, err := core.New(core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB}, sink)
		if err != nil {
			b.Fatal(err)
		}
		for k, it := range synthTuplesB(10_000, 1_000) {
			if err := j.Process(1, it, stream.Time(k+1)); err != nil {
				b.Fatal(err)
			}
		}
		p := stream.PunctItem(punct.MustKeyOnly(2, 0,
			punct.MustRange(value.Int(0), value.Int(499))), 20_000)
		b.StartTimer()
		if err := j.Process(0, p, 20_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTupleEncode measures the spill serialisation round trip.
func BenchmarkTupleEncode(b *testing.B) {
	t := stream.MustTuple(gen.SchemaA, 42, value.Int(7), value.Str("some payload text"))
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = t.AppendBinary(buf[:0])
		if _, _, err := stream.DecodeTuple(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// throughput benchmarks: full operator pipelines over the same workload.
func benchJoinThroughput(b *testing.B, mk func(emit op.Emitter) (interface {
	Process(int, stream.Item, stream.Time) error
	Finish(stream.Time) error
}, error)) {
	b.Helper()
	arrs, err := gen.Synthetic(gen.Config{
		Seed: 1, MaxTuples: 20_000,
		A: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 40},
		B: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 40},
	})
	if err != nil {
		b.Fatal(err)
	}
	sink := op.EmitterFunc(func(stream.Item) error { return nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := mk(sink)
		if err != nil {
			b.Fatal(err)
		}
		var last stream.Time
		for _, a := range arrs {
			if err := j.Process(a.Port, a.Item, a.Item.Ts); err != nil {
				b.Fatal(err)
			}
			last = a.Item.Ts
		}
		for port := 0; port < 2; port++ {
			last++
			if err := j.Process(port, stream.EOSItem(last), last); err != nil {
				b.Fatal(err)
			}
		}
		if err := j.Finish(last + 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(arrs)*b.N)/b.Elapsed().Seconds(), "items/s")
}

func BenchmarkPJoinThroughput(b *testing.B) {
	benchJoinThroughput(b, func(emit op.Emitter) (interface {
		Process(int, stream.Item, stream.Time) error
		Finish(stream.Time) error
	}, error) {
		return core.New(core.Config{
			SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
		}, emit)
	})
}

func BenchmarkXJoinThroughput(b *testing.B) {
	benchJoinThroughput(b, func(emit op.Emitter) (interface {
		Process(int, stream.Item, stream.Time) error
		Finish(stream.Time) error
	}, error) {
		return core.NewXJoin(core.Config{
			SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
		}, emit)
	})
}

func BenchmarkSHJThroughput(b *testing.B) {
	benchJoinThroughput(b, func(emit op.Emitter) (interface {
		Process(int, stream.Item, stream.Time) error
		Finish(stream.Time) error
	}, error) {
		return shj.New(gen.SchemaA, gen.SchemaB, 0, 0, emit)
	})
}

// BenchmarkWindowJoin measures the sliding-window PJoin hot path: every
// arrival expires the out-of-window prefix of its bucket before probing.
func BenchmarkWindowJoin(b *testing.B) {
	sink := op.EmitterFunc(func(stream.Item) error { return nil })
	cfg := core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB}
	cfg.Window = 1000 // 1µs window over consecutive-nanosecond arrivals
	j, err := core.New(cfg, sink)
	if err != nil {
		b.Fatal(err)
	}
	itemsA := synthTuples(b.N, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := itemsA[i]
		it.Tuple.Ts = stream.Time(i + 1)
		if err := j.Process(i%2, retype(it, i%2), it.Tuple.Ts); err != nil {
			b.Fatal(err)
		}
	}
}

// retype rebuilds a synthetic tuple against the right side's schema.
func retype(it stream.Item, side int) stream.Item {
	if side == 0 {
		return it
	}
	t := stream.MustTuple(gen.SchemaB, it.Tuple.Ts, it.Tuple.Values...)
	return stream.TupleItem(t)
}

// BenchmarkSimulator measures the simulator's own overhead per arrival.
func BenchmarkSimulator(b *testing.B) {
	arrs, err := gen.Synthetic(gen.Config{
		Seed: 1, MaxTuples: 10_000,
		A: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 40},
		B: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 40},
	})
	if err != nil {
		b.Fatal(err)
	}
	sink := &op.Collector{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Reset()
		j, err := core.New(core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB}, sink)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(j, arrs, sim.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpillRoundTrip measures relocation plus a disk pass.
func BenchmarkSpillRoundTrip(b *testing.B) {
	sink := op.EmitterFunc(func(stream.Item) error { return nil })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB, NumBuckets: 8}
		cfg.Thresholds.MemoryBytes = 32 << 10
		cfg.Thresholds.DiskJoinIdle = 1
		j, err := core.New(cfg, sink)
		if err != nil {
			b.Fatal(err)
		}
		items := synthTuples(5_000, 100)
		b.StartTimer()
		for k, it := range items {
			if err := j.Process(0, it, stream.Time(k+1)); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := j.OnIdle(1 << 40); err != nil {
			b.Fatal(err)
		}
	}
}
