package joinbase

import (
	"fmt"
	"testing"

	"pjoin/internal/store"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// Allocation micro-benchmarks for the memory-join hot path. The probe
// machinery itself (key extraction, bucket scan, match collection) must
// not allocate: ProbeOpposite reuses a per-Base match buffer and
// arrival scratch. Result construction allocates a chunk of headers and
// a chunk of values per resultChunk matches (resultchunk_test.go), so
// the zero-allocation claim is benchmarked on the probe-miss path, where
// no result is built.

var benchSchemaA = stream.MustSchema("a",
	stream.Field{Name: "k", Kind: value.KindInt},
	stream.Field{Name: "pa", Kind: value.KindString},
)
var benchSchemaB = stream.MustSchema("b",
	stream.Field{Name: "k", Kind: value.KindInt},
	stream.Field{Name: "pb", Kind: value.KindString},
)

func benchBase(b *testing.B) *Base {
	b.Helper()
	sa, err := store.NewState("a", 0, 64, store.NewMemSpill())
	if err != nil {
		b.Fatal(err)
	}
	sb, err := store.NewState("b", 0, 64, store.NewMemSpill())
	if err != nil {
		b.Fatal(err)
	}
	base, err := New(sa, sb, nil, func(*stream.Tuple) error { return nil })
	if err != nil {
		b.Fatal(err)
	}
	return base
}

// BenchmarkProbeMiss measures the probe machinery alone: the opposite
// state holds 1024 tuples across 64 buckets, and the probed key never
// matches. Expected: 0 allocs/op.
func BenchmarkProbeMiss(b *testing.B) {
	base := benchBase(b)
	for i := 0; i < 1024; i++ {
		tp := stream.MustTuple(benchSchemaB, stream.Time(i+1),
			value.Int(int64(i)), value.Str("x"))
		if _, err := base.States[1].Insert(tp); err != nil {
			b.Fatal(err)
		}
	}
	probe := stream.MustTuple(benchSchemaA, 1<<40, value.Int(1<<30), value.Str("p"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := base.ProbeOpposite(0, probe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProbeHit measures a probe that matches `fanout` stored
// tuples: per op this is fanout result tuples built and emitted, with
// the match collection itself served from the reused scratch buffer.
func BenchmarkProbeHit(b *testing.B) {
	for _, fanout := range []int{1, 8} {
		b.Run(fmt.Sprintf("fanout%d", fanout), func(b *testing.B) {
			base := benchBase(b)
			for i := 0; i < fanout; i++ {
				tp := stream.MustTuple(benchSchemaB, stream.Time(i+1),
					value.Int(7), value.Str("x"))
				if _, err := base.States[1].Insert(tp); err != nil {
					b.Fatal(err)
				}
			}
			probe := stream.MustTuple(benchSchemaA, 1<<40, value.Int(7), value.Str("p"))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := base.ProbeOpposite(0, probe); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInsert measures state insertion (group index append +
// stats). StoredTuple boxes come from a slab (one allocation per
// storedChunk inserts) and index nodes from a free list once the state
// has churned; the benchmark tracks that steady-state insertion stays
// near one small object per tuple at worst.
func BenchmarkInsert(b *testing.B) {
	base := benchBase(b)
	tuples := make([]*stream.Tuple, 4096)
	for i := range tuples {
		tuples[i] = stream.MustTuple(benchSchemaA, stream.Time(i+1),
			value.Int(int64(i%512)), value.Str("x"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := base.States[0].Insert(tuples[i%len(tuples)]); err != nil {
			b.Fatal(err)
		}
		// Keep the state bounded so the benchmark measures insertion,
		// not an ever-growing scan space.
		if i%4096 == 4095 {
			b.StopTimer()
			nb := benchBase(b)
			base.States[0] = nb.States[0]
			b.StartTimer()
		}
	}
}

// TestProbeMissDoesNotAllocate enforces the zero-allocation probe path:
// the match buffer and the arrival's StoredTuple box are per-Base
// scratch, not per-tuple garbage.
func TestProbeMissDoesNotAllocate(t *testing.T) {
	base := benchBase(&testing.B{})
	for i := 0; i < 256; i++ {
		tp := stream.MustTuple(benchSchemaB, stream.Time(i+1),
			value.Int(int64(i)), value.Str("x"))
		if _, err := base.States[1].Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	probe := stream.MustTuple(benchSchemaA, 1<<40, value.Int(1<<30), value.Str("p"))
	// Warm up so the scratch buffer reaches steady-state capacity.
	if _, err := base.ProbeOpposite(0, probe); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := base.ProbeOpposite(0, probe); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("probe-miss path allocates %.1f objects per probe, want 0", allocs)
	}
}
