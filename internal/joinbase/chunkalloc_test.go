package joinbase

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"pjoin/internal/store"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// spilledBase builds a Base with nTuples per side spread over the bucket
// space, each carrying the string payload, then relocates until
// everything memory-resident is on disk, so a disk pass has real work on
// every bucket.
func spilledBase(tb testing.TB, nTuples int, payload string) *Base {
	tb.Helper()
	var b testing.B
	base := benchBase(&b)
	for i := 0; i < nTuples; i++ {
		if err := arrive(base, stream.Time(2*i+1), i, payload); err != nil {
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

// arrive inserts the i-th tuple of each side at times ts and ts+1.
func arrive(base *Base, ts stream.Time, i int, payload string) error {
	ta := stream.MustTuple(benchSchemaA, ts, value.Int(int64(i%97)), value.Str(payload))
	tb := stream.MustTuple(benchSchemaB, ts+1, value.Int(int64(i%89)), value.Str(payload))
	if _, err := base.States[0].Insert(ta); err != nil {
		return err
	}
	_, err := base.States[1].Insert(tb)
	return err
}

// passMallocs runs fn under a heap-allocation meter and returns the
// number of objects and of bytes it allocated.
func passMallocs(tb testing.TB, fn func() error) (objects, bytes uint64) {
	tb.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := fn(); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestDiskPassAllocs is the allocation guard for a cold disk pass: a
// whole first pass of a new driver over a spilled state (8,192 tuples on
// disk in 64 buckets), at the unbounded budget (a pass run to
// completion) and at the 64 KiB budget the spill benchmark runs. Both
// measure 71 objects (46 before a scan kept the bytes it read and its
// record list, and a pass sized its fresh-key indexes): one spill cursor
// per state, which the state re-arms for every bucket, plus the first
// fill of the decode arena, the string slab, the read buffers, the record
// lists and the pass scratch, which later passes reuse
// (TestDiskPassSteadyStateAllocs). The ceiling keeps
// the margin it had over the 173 objects read when every bucket side
// opened its own cursor. The pass allocates nothing per bucket, per
// decoded tuple (24,960 objects when it did), per step or per candidate
// pair (173,046 of them here, every tuple of a first pass being fresh;
// 286,198 pair checks before the keyed enumeration), so any of those
// overshoots the ceiling by multiples.
func TestDiskPassAllocs(t *testing.T) {
	const tuples = 4096
	now := stream.Time(100 * tuples)
	for _, tc := range []struct {
		name    string
		budget  int
		ceiling uint64
	}{
		{"unbounded", 0, 123},
		{"64KiB", 64 << 10, 123},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := spilledBase(t, tuples, "x")
			got, _ := passMallocs(t, func() error {
				return NewPassDriver(base, nil, tc.budget, PassHooks{}, nil).Finish(now)
			})
			if base.M.DiskPasses != 1 || base.M.DiskExamined != 173046 {
				t.Fatalf("pass did different work: %d passes, %d pairs examined, want 1 and 173046",
					base.M.DiskPasses, base.M.DiskExamined)
			}
			if got > tc.ceiling {
				t.Errorf("pass allocated %d objects over %d steps, ceiling %d", got, base.M.DiskChunks, tc.ceiling)
			}
			t.Logf("cold pass: %d objects (%d steps)", got, base.M.DiskChunks)
		})
	}
}

// warmPasses runs passes passes of one PassDriver over a spilled state
// (4,096 tuples per side on disk in 64 buckets), calls check after each,
// and returns the objects each pass allocated. Before every pass the
// previous pass's arrivals are purged into the purge buffers and 256 new
// tuples arrive per side, so every pass meets the same shape: disk,
// purge-buffer and memory tuples on each bucket side, and about 23,000
// disk-join results, handed to EmitPair as pairs (an output that builds
// its results itself). The payloads are empty strings: a string payload
// that a pass decodes goes to the state's string slab, which is appended
// to and never rewound (one object per 8 KiB decoded);
// TestDiskPassPayloadAllocs is the twin with payloads.
func warmPasses(t *testing.T, budget, passes int, check func(pass int, d *PassDriver)) []uint64 {
	t.Helper()
	const tuples, arrivals = 4096, 256
	base := spilledBase(t, tuples, "")
	joins := 0
	base.EmitPair = func(_, _ *stream.Tuple, _ stream.Time) error { joins++; return nil }
	d := NewPassDriver(base, nil, budget, PassHooks{}, nil)
	ts := stream.Time(100 * tuples)
	arriveAll := func() {
		for i := 0; i < arrivals; i++ {
			ts += 2
			if err := arrive(base, ts, i, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	arriveAll()
	objects := make([]uint64, passes)
	for pass := range objects {
		ts += 2
		for _, st := range base.States {
			for i := 0; i < st.NumBuckets(); i++ {
				for _, s := range st.FilterMem(i, func(*store.StoredTuple) bool { return true }) {
					st.AddToPurgeBuffer(i, s, ts)
				}
			}
		}
		arriveAll()
		ts += 2
		before := joins
		objects[pass], _ = passMallocs(t, func() error { return d.Finish(ts) })
		if joins-before < 20000 {
			t.Fatalf("pass %d joined %d pairs, want a full pass", pass, joins-before)
		}
		if check != nil {
			check(pass, d)
		}
	}
	return objects
}

// TestDiskPassSteadyStateAllocs is TestDiskPassAllocs's warm twin: one
// driver, passes separated by arrivals and purges, at the unbounded and
// the 64 KiB budget. Only the first pass fills the scratch (the
// fresh-key indexes included, which a first pass sizes but, finding
// every tuple fresh, does not build); every pass after it allocates
// nothing: the driver re-arms its one pass, each state re-arms its one
// spill cursor, and the pass scratch, the purge buffers, the decode
// arena and the read buffers all keep their capacity. These passes drop
// no disk record, so they rewrite no partition, and nothing is relocated
// between them: TestDiskPassRewriteAllocs guards that cycle. The heap meter
// counts the whole process, whose other goroutines allocate now and then
// (the runtime's scavenger grows its timer heap; the test runner reports
// under -v), so the 16 warm passes are held, as testing.AllocsPerRun
// holds its runs, to an integer mean of 0 objects: a few stray objects
// cannot fail the test, one object per pass does.
func TestDiskPassSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int
	}{{"unbounded", 0}, {"64KiB", 64 << 10}} {
		t.Run(tc.name, func(t *testing.T) {
			objects := warmPasses(t, tc.budget, 17, nil)
			var warm uint64
			for _, n := range objects[1:] {
				warm += n
			}
			if mean := warm / uint64(len(objects)-1); mean != 0 {
				t.Errorf("warm passes allocate %d objects each (%v), want 0", mean, objects)
			}
			t.Logf("objects per pass: %v", objects)
		})
	}
}

// TestDiskPassRewriteAllocs is the steady-state guard for the cycle a
// spilling join runs, which TestDiskPassSteadyStateAllocs's passes never
// reach: between passes 256 tuples arrive per side and Relocate spills
// the whole memory portion (SpillBucket appends to every partition), and
// the pass's DropDisk drops, key by key, as many of the oldest records as
// arrived, so every partition is rewritten (truncated and appended
// again) to the size it had a cycle before and the disk footprint stays
// flat. A warm cycle, relocation and pass, allocates nothing: the spill
// store refills a truncated partition's extent, and the read buffers and
// the encode scratch keep their capacity. It is held, as its twin, to an
// integer mean of 0 objects over 16 warm cycles; while a truncated
// partition was discarded, every cycle regrew its partitions.
func TestDiskPassRewriteAllocs(t *testing.T) {
	const tuples, arrivals, cycles = 4096, 256, 17
	keys := [2]int{97, 89} // arrive's keys per side
	for _, budget := range []int{0, 64 << 10} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			base := spilledBase(t, tuples, "")
			base.EmitPair = func(_, _ *stream.Tuple, _ stream.Time) error { return nil }
			var quota, dropped [2][]int
			for s := range quota {
				quota[s], dropped[s] = make([]int, keys[s]), make([]int, keys[s])
				for i := 0; i < arrivals; i++ {
					quota[s][i%keys[s]]++
				}
			}
			hooks := PassHooks{
				OnPassStart: func() { clear(dropped[0]); clear(dropped[1]) },
				DropDisk: func(s int, key value.Value, _ int) bool {
					k := key.IntVal()
					if dropped[s][k] == quota[s][k] {
						return false
					}
					dropped[s][k]++ // records come oldest first
					return true
				},
			}
			d := NewPassDriver(base, nil, budget, hooks, nil)
			ts := stream.Time(100 * tuples)
			objects := make([]uint64, cycles)
			for c := range objects {
				for i := 0; i < arrivals; i++ {
					ts += 2
					if err := arrive(base, ts, i, ""); err != nil {
						t.Fatal(err)
					}
				}
				ts += 2
				relocations, purged := base.M.Relocations, base.M.Purged
				objects[c], _ = passMallocs(t, func() error {
					if err := base.Relocate(ts, 1, nil); err != nil {
						return err
					}
					return d.Finish(ts)
				})
				if base.M.Relocations == relocations || base.M.Purged-purged != 2*arrivals {
					t.Fatalf("cycle %d: %d relocations, %d records dropped; want some and %d",
						c, base.M.Relocations-relocations, base.M.Purged-purged, 2*arrivals)
				}
				for s, st := range base.States {
					if got := st.Stats().DiskTuples; got != tuples {
						t.Fatalf("cycle %d: side %d holds %d tuples on disk, want a flat %d", c, s, got, tuples)
					}
				}
			}
			var warm uint64
			for _, n := range objects[1:] {
				warm += n
			}
			if mean := warm / uint64(len(objects)-1); mean != 0 {
				t.Errorf("warm rewrite cycles allocate %d objects each (%v), want 0", mean, objects)
			}
			t.Logf("objects per rewrite cycle: %v", objects)
		})
	}
}

// TestDiskPassPayloadAllocs is the warm twin with real payloads: the
// spilled state of TestDiskPassAllocs with a 24-byte string payload on
// every tuple, and before each pass 8 arrivals per side on keys 0..3,
// which stay in memory. The arrivals are a warm pass's only fresh tuples,
// so it decodes in full only the disk records of keys 0..3 (about 350 of
// 8,192) and parses the rest to their key; its allocations are then the
// string slabs those payloads fill (value.Strings: one 8 KiB slab per
// 8 KiB decoded, and the one a pass may start). The bound is that, from
// Metrics.DiskDecoded, summed over the warm passes. On a 2-vCPU Intel
// Xeon a warm pass allocated 197,521–198,104 B when every record was
// decoded in full, and 8,970 B (358 records decoded) with the cut, at
// either budget.
func TestDiskPassPayloadAllocs(t *testing.T) {
	const tuples, arrivals, passes = 4096, 8, 10
	const payload = "payload-0123456789abcdef"
	const slab = 8 << 10
	for _, budget := range []int{0, 64 << 10} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			base := spilledBase(t, tuples, payload)
			base.EmitPair = func(_, _ *stream.Tuple, _ stream.Time) error { return nil }
			d := NewPassDriver(base, nil, budget, PassHooks{}, nil)
			ts := stream.Time(100 * tuples)
			var got, bound, decoded uint64
			for pass := 0; pass < passes; pass++ {
				for i := 0; i < arrivals; i++ {
					ts += 2
					if err := arrive(base, ts, i%4, payload); err != nil {
						t.Fatal(err)
					}
				}
				ts += 2
				before := base.M.DiskDecoded
				_, n := passMallocs(t, func() error { return d.Finish(ts) })
				if pass == 0 {
					continue // the cold pass
				}
				dec := uint64(base.M.DiskDecoded - before)
				got, decoded = got+n, decoded+dec
				bound += slab * (2 + dec*uint64(len(payload))/(slab-uint64(len(payload))))
			}
			warm := uint64(passes - 1)
			if got > bound {
				t.Errorf("warm passes allocate %d B each, decoding %d records each: bound %d B", got/warm, decoded/warm, bound/warm)
			}
			t.Logf("payload passes: %d bytes per warm pass, %d of %d records decoded", got/warm, decoded/warm, 2*tuples)
		})
	}
}

// TestPassScratchHoldsNoTuples: between passes, nothing the driver keeps
// for reuse — the pass scratch up to its capacity, the key index — and no
// bucket's emptied purge buffer still points at a stored tuple, so
// reuse pins no purged, spilled or decoded tuple.
func TestPassScratchHoldsNoTuples(t *testing.T) {
	for _, budget := range []int{0, 64 << 10} {
		warmPasses(t, budget, 3, func(pass int, d *PassDriver) {
			if n := storedHeld(reflect.ValueOf(&d.pass).Elem()); n != 0 {
				t.Errorf("budget %d, after pass %d: the pass scratch holds %d stored tuples", budget, pass, n)
			}
			for s, st := range d.b.States {
				for i := 0; i < st.NumBuckets(); i++ {
					if n := storedHeld(reflect.ValueOf(st.Bucket(i).PurgeBuf)); n != 0 {
						t.Fatalf("budget %d, after pass %d: side %d bucket %d's purge buffer holds %d stored tuples",
							budget, pass, s, i, n)
					}
				}
			}
		})
	}
}

// storedHeld counts the non-nil *store.StoredTuple reachable from v
// through structs, arrays and slices — a slice up to its capacity, where
// a reused buffer keeps what it held — without following any other
// pointer.
func storedHeld(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Pointer:
		if v.Type() == reflect.TypeOf((*store.StoredTuple)(nil)) && !v.IsNil() {
			n = 1
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += storedHeld(v.Field(i))
		}
	case reflect.Slice:
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			n += storedHeld(v.Index(i))
		}
	}
	return n
}
