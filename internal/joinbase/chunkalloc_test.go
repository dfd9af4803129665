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
// pass over the same spilled state (8,192 tuples on disk in 64 buckets),
// at the unbounded budget (a pass run to completion) and at the 64 KiB
// budget the spill benchmark runs. Both measure 173 objects: one store
// cursor per bucket per side (128) plus the first fill of the decode
// arena, read buffers and pass scratch, which later passes reuse. The
// pass allocates nothing per decoded tuple (24,960 objects when it did),
// per step or per candidate pair (173,046 of them here; 286,198 pair
// checks before the keyed enumeration), so any of those overshoots the
// ceiling by multiples.
func TestDiskPassAllocs(t *testing.T) {
	const tuples = 4096
	now := stream.Time(100 * tuples)
	for _, tc := range []struct {
		name    string
		budget  int
		ceiling uint64
	}{
		{"unbounded", 0, 250},
		{"64KiB", 64 << 10, 250},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := spilledBase(t, tuples)
			got := passMallocs(t, func() error {
				return NewPassDriver(base, nil, tc.budget, PassHooks{}, nil).Finish(now)
			})
			if base.M.DiskPasses != 1 || base.M.DiskExamined != 173046 {
				t.Fatalf("pass did different work: %d passes, %d pairs examined, want 1 and 173046",
					base.M.DiskPasses, base.M.DiskExamined)
			}
			if got > tc.ceiling {
				t.Errorf("pass allocated %d objects over %d steps, ceiling %d", got, base.M.DiskChunks, tc.ceiling)
			}
			t.Logf("allocs: %d (%d steps)", got, base.M.DiskChunks)
		})
	}
}
