package joinbase

import (
	"runtime"
	"testing"

	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// spilledBase builds a Base with nTuples per side spread over the bucket
// space, then relocates until everything memory-resident is on disk, so
// a disk pass has real work on every bucket.
func spilledBase(tb testing.TB, nTuples int) *Base {
	tb.Helper()
	var b testing.B
	base := benchBase(&b)
	for i := 0; i < nTuples; i++ {
		ta := stream.MustTuple(benchSchemaA, stream.Time(2*i+1),
			value.Int(int64(i%97)), value.Str("a"))
		tbp := stream.MustTuple(benchSchemaB, stream.Time(2*i+2),
			value.Int(int64(i%89)), value.Str("b"))
		if _, err := base.States[0].Insert(ta); err != nil {
			tb.Fatal(err)
		}
		if _, err := base.States[1].Insert(tbp); err != nil {
			tb.Fatal(err)
		}
	}
	if err := base.Relocate(stream.Time(10*nTuples), 1, nil); err != nil {
		tb.Fatal(err)
	}
	if !base.NeedsPass() {
		tb.Fatal("setup produced no disk-resident work")
	}
	return base
}

// passMallocs runs fn under a heap-allocation meter and returns the
// number of objects it allocated.
func passMallocs(tb testing.TB, fn func() error) uint64 {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := fn(); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestDiskPassAllocs is the allocation guard for the disk join: a whole
// pass over the same spilled state, at the unbounded budget (a pass run
// to completion) and at the 64 KiB budget the spill benchmark runs. The
// ceilings are the object counts measured at the commit before
// PassDriver existed (24,960 and 25,172) plus 2%. The pass allocates
// what decoding the spilled tuples needs and nothing per step or per
// pair check (286,198 of them here), so that kind of garbage overshoots
// the ceiling by multiples.
func TestDiskPassAllocs(t *testing.T) {
	const tuples = 4096
	now := stream.Time(100 * tuples)
	for _, tc := range []struct {
		name    string
		budget  int
		ceiling uint64
	}{
		{"unbounded", 0, 24960 * 102 / 100},
		{"64KiB", 64 << 10, 25172 * 102 / 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := spilledBase(t, tuples)
			got := passMallocs(t, func() error {
				return NewPassDriver(base, nil, tc.budget, PassHooks{}, nil).Finish(now)
			})
			if base.M.DiskPasses != 1 || base.M.DiskExamined != 286198 {
				t.Fatalf("pass did different work: %d passes, %d pairs examined, want 1 and 286198",
					base.M.DiskPasses, base.M.DiskExamined)
			}
			if got > tc.ceiling {
				t.Errorf("pass allocated %d objects over %d steps, ceiling %d", got, base.M.DiskChunks, tc.ceiling)
			}
			t.Logf("allocs: %d (%d steps)", got, base.M.DiskChunks)
		})
	}
}
