package store

import (
	"testing"

	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// Micro-benchmarks and enforcement tests for the key-grouped index's two
// perf claims: probes touch only the matching group (O(matches) instead
// of O(occupancy)) and the steady-state hot path stays off the
// allocator (slab-backed wrappers, free-listed nodes).

// probeState builds a single-bucket state holding `occupancy` tuples of
// which `matches` share the probed key (interspersed through the
// arrival order, so a scan cannot stop early).
func probeState(tb testing.TB, occupancy, matches int) (*State, value.Value) {
	tb.Helper()
	st, err := NewState("A", 0, 1, NewMemSpill())
	if err != nil {
		tb.Fatal(err)
	}
	const hot = int64(1 << 40)
	stride := occupancy / matches
	for i := 0; i < occupancy; i++ {
		k := int64(i)
		if i%stride == stride/2 && i/stride < matches {
			k = hot
		}
		tp := stream.MustTuple(testSchema, stream.Time(i+1), value.Int(k), value.Str("p"))
		if _, err := st.Insert(tp); err != nil {
			tb.Fatal(err)
		}
	}
	return st, value.Int(hot)
}

func BenchmarkProbeIndexed(b *testing.B) {
	st, key := probeState(b, 1024, 4)
	dst := make([]*StoredTuple, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = st.ProbeMem(key, dst[:0])
	}
}

func BenchmarkProbeWalk(b *testing.B) {
	st, key := probeState(b, 1024, 4)
	dst := make([]*StoredTuple, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = walkProbe(st, key, dst[:0])
	}
}

// TestIndexedProbeSpeedup is the ISSUE acceptance gate: on a
// 1024-occupancy bucket with 4 matches the indexed probe must run at
// least 5x faster than a full-bucket walk (walkProbe, the reference the
// index is checked against) and must not allocate. The real gap is
// ~100x (4 nodes walked vs 1024); 5x leaves headroom for noisy CI
// machines.
func TestIndexedProbeSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	st, key := probeState(t, 1024, 4)
	dst := make([]*StoredTuple, 0, 8)

	indexed := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst, _ = st.ProbeMem(key, dst[:0])
		}
	})
	scan := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst, _ = walkProbe(st, key, dst[:0])
		}
	})

	if m, ex := st.ProbeMem(key, dst[:0]); len(m) != 4 || ex != 4 {
		t.Fatalf("probe found %d matches examining %d, want 4/4", len(m), ex)
	}
	if m, walked := walkProbe(st, key, nil); len(m) != 4 || walked != 1024 {
		t.Fatalf("walk found %d matches visiting %d, want 4/1024", len(m), walked)
	}
	speedup := float64(scan.NsPerOp()) / float64(indexed.NsPerOp())
	t.Logf("indexed %d ns/op, walk %d ns/op, speedup %.1fx",
		indexed.NsPerOp(), scan.NsPerOp(), speedup)
	if speedup < 5 {
		t.Errorf("indexed probe only %.1fx faster than the walk, want >= 5x", speedup)
	}

	allocs := testing.AllocsPerRun(100, func() {
		dst, _ = st.ProbeMem(key, dst[:0])
	})
	if allocs != 0 {
		t.Errorf("indexed probe allocates %.1f objects per op, want 0", allocs)
	}
}

// TestInsertAllocsAmortised guards the slab/free-list machinery: after a
// purge recycles index nodes, further inserts draw wrappers from the
// current slab chunk and nodes from the free list — amortised well under
// one allocation per insert (a fresh chunk every slabChunk inserts is
// the only steady-state source).
func TestInsertAllocsAmortised(t *testing.T) {
	st := mkState(t, 4)
	tp := tup(t, 7, 1)
	// Prime: fill a group, then purge it so nodes and the group hit the
	// free lists and the slab chunk has room.
	for i := 0; i < 300; i++ {
		if _, err := st.Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	if _, removed := st.TakeKeyGroup(value.Int(7)); len(removed) != 300 {
		t.Fatalf("primed purge removed %d", len(removed))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := st.Insert(tp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Errorf("steady-state insert allocates %.2f objects per op, want amortised < 0.5", allocs)
	}
}

// TestFreeListRecycling checks that purge and expiry actually feed the
// free lists: a purge/insert cycle reuses nodes instead of growing the
// heap, with the group index staying correct throughout.
func TestFreeListRecycling(t *testing.T) {
	st := mkState(t, 2)
	for cycle := 0; cycle < 50; cycle++ {
		for i := int64(0); i < 8; i++ {
			if _, err := st.Insert(tup(t, i, stream.Time(cycle*100+int(i)+1))); err != nil {
				t.Fatal(err)
			}
		}
		// Alternate removal styles so both unlink paths recycle.
		if cycle%2 == 0 {
			for i := int64(0); i < 8; i++ {
				if _, rm := st.TakeKeyGroup(value.Int(i)); len(rm) != 1 {
					t.Fatalf("cycle %d key %d: removed %d", cycle, i, len(rm))
				}
			}
		} else {
			for b := 0; b < st.NumBuckets(); b++ {
				st.ExpireMemPrefix(b, 1<<40)
			}
		}
		if got := st.Stats(); got.MemTuples != 0 || got.MemGroups != 0 {
			t.Fatalf("cycle %d left stats %+v", cycle, got)
		}
	}
}
