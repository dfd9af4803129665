package joinbase

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/shj"
	"pjoin/internal/store"
	"pjoin/internal/stream"
	"pjoin/internal/value"
	"pjoin/internal/vtime"
)

// orderBase builds a Base whose states place keys by a degenerate hash
// (key mod 6 over 3 buckets: keys k, k+6, k+12, k+18 share a full hash,
// and every bucket holds eight keys), and collects results as strings.
func orderBase(t *testing.T) (*Base, *[]string) {
	t.Helper()
	b, _ := newBase(t, 3)
	for _, st := range b.States {
		st.SetHashFuncForTest(func(v value.Value) uint64 { return uint64(v.IntVal()) % 6 })
	}
	results := &[]string{}
	b.Emit = func(tp *stream.Tuple) error {
		*results = append(*results, tp.String())
		return nil
	}
	return b, results
}

// churn applies n random state operations: arrivals (not memory-joined —
// a pass must skip residence-overlapping pairs on its own), spills of a
// whole bucket, and key groups moved to the purge buffer. Every bucket
// side ends up a different mix of disk, purge-buffer and memory tuples.
func churn(t *testing.T, b *Base, rng *vtime.RNG, ts *stream.Time, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		*ts++
		side := rng.Intn(2)
		st := b.States[side]
		switch op := rng.Intn(12); {
		case op < 9:
			key := int64(rng.Intn(24))
			tp := stream.MustTuple(scA, *ts, value.Int(key), value.Str(fmt.Sprintf("%d#%d", side, *ts)))
			if _, err := st.Insert(tp); err != nil {
				t.Fatal(err)
			}
		case op < 11:
			if _, err := st.SpillBucket(rng.Intn(st.NumBuckets()), *ts); err != nil {
				t.Fatal(err)
			}
		default:
			bucket, removed := st.TakeKeyGroup(value.Int(int64(rng.Intn(24))))
			for _, s := range removed {
				st.AddToPurgeBuffer(bucket, s, *ts)
			}
		}
	}
}

// nestedLoopPass is the reference: the result sequence of one disk pass
// over b at time now, computed the way the pass enumerated pairs before
// it had a key index — every x of side 0 against every y of side 1, in
// side order (disk ++ purge buffer ++ memory). It reads b and changes
// nothing but spill read counters.
func nestedLoopPass(t *testing.T, b *Base, now stream.Time) []string {
	t.Helper()
	var want []string
	for i := 0; i < b.States[0].NumBuckets(); i++ {
		if !b.States[0].HasDisk(i) && !b.States[1].HasDisk(i) &&
			len(b.States[0].Bucket(i).PurgeBuf) == 0 && len(b.States[1].Bucket(i).PurgeBuf) == 0 {
			continue
		}
		var sides [2][]*store.StoredTuple
		for s, st := range b.States {
			if ds, err := st.OpenDiskScan(i); err != nil {
				t.Fatal(err)
			} else if ds != nil {
				for done := false; !done; {
					if sides[s], done, err = ds.Next(math.MaxInt, sides[s]); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.FinishDiskScan(ds, nil, false); err != nil {
					t.Fatal(err)
				}
			}
			sides[s] = append(sides[s], st.Bucket(i).PurgeBuf...)
			sides[s] = st.Bucket(i).AppendMem(sides[s])
		}
		last := b.lastPass[i]
		cb := struct{ xi, yi int }{}
		for ys := sides[1]; cb.xi < len(sides[0]); cb.xi, cb.yi = cb.xi+1, 0 {
			x := sides[0][cb.xi]
			for cb.yi < len(ys) {
				y := ys[cb.yi]
				cb.yi++
				if !b.States[1].Key(y.T).Equal(b.States[0].Key(x.T)) || x.Overlaps(y) ||
					reachable(x, y, last) || !reachable(x, y, now) {
					continue
				}
				want = append(want, x.T.Join(y.T).String())
			}
		}
	}
	return want
}

// TestKeyedPassPreservesOrder: enumerating a bucket's candidate pairs
// through the key index yields the result SEQUENCE of the nested loop —
// same pairs, same order — on buckets whose keys collide in the full
// hash and whose sides mix disk, purge-buffer and memory tuples, for
// first passes and for passes that follow one (a non-zero watermark), at
// a drained budget, one far smaller than a bucket, and the benchmark's.
func TestKeyedPassPreservesOrder(t *testing.T) {
	for _, budget := range []int{0, 512, 64 << 10} {
		for seed := uint64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("budget=%d/seed=%d", budget, seed), func(t *testing.T) {
				rng := vtime.NewRNG(seed)
				b, results := orderBase(t)
				var ts stream.Time
				emitted := 0
				for pass := 0; pass < 3; pass++ {
					churn(t, b, rng, &ts, 150)
					ts++
					want := nestedLoopPass(t, b, ts)
					*results = (*results)[:0]
					before := b.M.DiskExamined
					if err := NewPassDriver(b, nil, budget, PassHooks{}, nil).Finish(ts); err != nil {
						t.Fatal(err)
					}
					if len(*results) != len(want) {
						t.Fatalf("pass %d: %d results, nested loop %d", pass, len(*results), len(want))
					}
					for i := range want {
						if (*results)[i] != want[i] {
							t.Fatalf("pass %d: result %d is %s, nested loop has %s", pass, i, (*results)[i], want[i])
						}
					}
					if got := b.M.DiskExamined - before; got < int64(len(want)) {
						t.Errorf("pass %d: %d candidates visited for %d results", pass, got, len(want))
					}
					emitted += len(want)
				}
				if emitted == 0 {
					t.Fatal("scenario produced no disk-join results")
				}
			})
		}
	}
}

// TestRetainedDiskJoinResultsMatchReference runs a spilling join over
// many buckets with a budgeted pass stepped between arrivals — so scans
// open, recycle the decode arenas and finish hundreds of times while
// earlier results are still held — keeps every emitted result, and only
// at the end compares them value by value with the brute-force shj over
// the same arrivals. A result that kept pointing into a recycled arena
// would read as another tuple's values (or panic) by then. With PJoin-
// style hooks the pass also assigns pids (rewritten from arena tuples),
// drops disk tuples whose key the other side has closed, and counts
// discards; without hooks it is XJoin's pass.
func TestRetainedDiskJoinResultsMatchReference(t *testing.T) {
	for _, hooked := range []bool{false, true} {
		for _, budget := range []int{0, 256} {
			t.Run(fmt.Sprintf("hooks=%v/budget=%d", hooked, budget), func(t *testing.T) {
				retainedRun(t, hooked, budget)
			})
		}
	}
}

func retainedRun(t *testing.T, hooked bool, budget int) {
	const keys, arrivals = 40, 3000
	rng := vtime.NewRNG(7)
	b, results := newBase(t, 8)
	ref := &op.Collector{}
	oracle, err := shj.New(scA, scB, 0, 0, ref)
	if err != nil {
		t.Fatal(err)
	}

	// closed[s][k]: side s will send no more tuples with key k (what a
	// punctuation promises). dropClosed is the copy a pass may act on,
	// taken when it opens a bucket (see PassHooks.OnBucketOpen).
	var closed, dropClosed [2][keys]bool
	var discarded, indexed int
	hooks := PassHooks{}
	if hooked {
		hooks = PassHooks{
			OnBucketOpen: func() { dropClosed = closed },
			IndexDisk: func(side int, s *store.StoredTuple) {
				key := s.T.Values[0].IntVal()
				switch {
				case s.PID != punct.NoPID && s.PID != punct.PID(key+1):
					t.Errorf("disk tuple %v came back with pid %d, assigned %d", s.T, s.PID, key+1)
				case s.PID == punct.NoPID && closed[side][key]:
					s.PID = punct.PID(key + 1)
					indexed++
				}
			},
			DropDisk: func(side int, s *store.StoredTuple) bool {
				return dropClosed[1-side][s.T.Values[0].IntVal()]
			},
			OnDiscard: func(int, *store.StoredTuple) { discarded++ },
		}
	}
	disk := NewPassDriver(b, nil, budget, hooks, nil)

	var ts stream.Time
	for i := 0; i < arrivals; i++ {
		ts++
		side, key := rng.Intn(2), rng.Intn(keys)
		if closed[side][key] {
			continue
		}
		if rng.Intn(60) == 0 {
			// Close the key on this side: the other side's tuples with
			// it can join nothing new, so they leave memory for the
			// purge buffer, as a punctuation's purge would move them.
			closed[side][key] = true
			if hooked {
				bucket, removed := b.States[1-side].TakeKeyGroup(value.Int(int64(key)))
				for _, s := range removed {
					b.States[1-side].AddToPurgeBuffer(bucket, s, ts)
				}
			}
			continue
		}
		sc := scA
		if side == 1 {
			sc = scB
		}
		tp := stream.MustTuple(sc, ts, value.Int(int64(key)), value.Str(fmt.Sprintf("%d#%d", side, i)))
		if err := oracle.Process(side, stream.TupleItem(tp), ts); err != nil {
			t.Fatal(err)
		}
		if _, err := b.ProbeOpposite(side, tp); err != nil {
			t.Fatal(err)
		}
		if _, err := b.States[side].Insert(tp); err != nil {
			t.Fatal(err)
		}
		// Relocation is stamped one tick on, as the operators do: the
		// spilled tuples were resident for the probe at ts.
		if err := b.Relocate(ts+1, 6000, nil); err != nil {
			t.Fatal(err)
		}
		if budget > 0 {
			err = disk.Pump(ts)
		} else if i%100 == 99 {
			err = disk.Activate(ts)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := disk.Finish(ts + 1); err != nil {
		t.Fatal(err)
	}

	if b.M.Relocations < 16 || b.M.DiskPasses < 8 || b.M.DiskJoins == 0 {
		t.Fatalf("run too tame: %d relocations, %d passes, %d disk joins", b.M.Relocations, b.M.DiskPasses, b.M.DiskJoins)
	}
	if hooked && (discarded == 0 || indexed == 0 || b.M.Purged == 0) {
		t.Fatalf("hooks idle: %d discards, %d pids assigned, %d disk tuples dropped", discarded, indexed, b.M.Purged)
	}
	got := make([]string, len(*results))
	for i, r := range *results {
		got[i] = fmt.Sprint(r.Values)
	}
	var want []string
	for _, it := range ref.Items {
		if it.Kind == stream.KindTuple {
			want = append(want, fmt.Sprint(it.Tuple.Values))
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%d results retained, shj has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retained result %d reads %s, shj has %s", i, got[i], want[i])
		}
	}
	t.Logf("%d results (%d from %d passes over %d relocations), %d discards",
		len(got), b.M.DiskJoins, b.M.DiskPasses, b.M.Relocations, discarded)
}
