package joinbase

import (
	"encoding/hex"
	"fmt"
	"io"
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
// it had a key index or selected its sides — every x of side 0 against
// every y of side 1, in side order (disk ++ purge buffer ++ memory), all
// decoded in full. It also counts the disk records, and the distinct ones
// that are in an emitted pair: what a pass must decode. It reads b and
// changes nothing but spill read counters.
func nestedLoopPass(t *testing.T, b *Base, now stream.Time) (want []string, joined, records int64) {
	t.Helper()
	for i := 0; i < b.States[0].NumBuckets(); i++ {
		if !b.States[0].HasDisk(i) && !b.States[1].HasDisk(i) &&
			len(b.States[0].Bucket(i).PurgeBuf) == 0 && len(b.States[1].Bucket(i).PurgeBuf) == 0 {
			continue
		}
		last := b.lastPass[i]
		var sides [2][]*store.StoredTuple
		var ndisk [2]int
		for s, st := range b.States {
			if ds, err := st.OpenDiskScan(i); err != nil {
				t.Fatal(err)
			} else if ds != nil {
				for done := false; !done; {
					if sides[s], done, err = ds.Next(math.MaxInt, sides[s]); err != nil {
						t.Fatal(err)
					}
				}
				for j := range sides[s] {
					if err := ds.Decode(j); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.FinishDiskScan(ds, nil, false); err != nil {
					t.Fatal(err)
				}
			}
			ndisk[s] = len(sides[s])
			records += int64(ndisk[s])
			sides[s] = append(sides[s], st.Bucket(i).PurgeBuf...)
			sides[s] = st.Bucket(i).AppendMem(sides[s])
		}
		var inPair [2][]bool // inPair[s][j]: side s's disk record j is in an emitted pair
		for s := range inPair {
			inPair[s] = make([]bool, ndisk[s])
		}
		for xi, x := range sides[0] {
			for yi, y := range sides[1] {
				if !b.States[1].Key(y.T).Equal(b.States[0].Key(x.T)) || x.Overlaps(y) ||
					reachable(x, y, last) || !reachable(x, y, now) {
					continue
				}
				want = append(want, x.T.Join(y.T).String())
				for s, j := range [2]int{xi, yi} {
					if j < ndisk[s] && !inPair[s][j] {
						inPair[s][j] = true
						joined++
					}
				}
			}
		}
	}
	return want, joined, records
}

// TestKeyedPassPreservesOrder: enumerating a bucket's candidate pairs
// through the key index, over sides cut to what the fresh-tuple rule
// selects, yields the result SEQUENCE of the nested loop over every tuple
// — same pairs, same order — on buckets whose keys collide in the full
// hash and whose sides mix disk, purge-buffer and memory tuples (with
// string payloads), for first passes and for passes that follow one (a
// non-zero watermark), at a drained budget, one far smaller than a
// bucket, and the benchmark's. On every pass the disk records decoded in
// full are exactly the distinct ones in an emitted pair, and over the
// scenario some records are never decoded.
func TestKeyedPassPreservesOrder(t *testing.T) {
	for _, budget := range []int{0, 512, 64 << 10} {
		for seed := uint64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("budget=%d/seed=%d", budget, seed), func(t *testing.T) {
				rng := vtime.NewRNG(seed)
				b, results := orderBase(t)
				var ts stream.Time
				emitted := 0
				var allRecords, allDecoded int64
				for pass := 0; pass < 3; pass++ {
					churn(t, b, rng, &ts, 150)
					ts++
					want, joined, records := nestedLoopPass(t, b, ts)
					*results = (*results)[:0]
					before, decoded := b.M.DiskExamined, b.M.DiskDecoded
					if err := NewPassDriver(b, nil, budget, PassHooks{}, nil).Finish(ts); err != nil {
						t.Fatal(err)
					}
					if got := b.M.DiskDecoded - decoded; got != joined {
						t.Errorf("pass %d: %d of %d disk records decoded in full, %d are in an emitted pair", pass, got, records, joined)
					}
					allRecords += records
					allDecoded += b.M.DiskDecoded - decoded
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
				if allDecoded >= allRecords {
					t.Errorf("the passes decoded all %d disk records: the scenario never exercises the cut", allRecords)
				}
			})
		}
	}
}

// readPartition reads a spill partition's whole contents through one scan
// cursor.
func readPartition(s store.SpillStore, part int) ([]byte, error) {
	sc, err := s.OpenScan(part, nil)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	return io.ReadAll(sc)
}

// TestRewriteKeepsKeyOnlyRecords: a finalise that drops records and keeps
// others the pass never decoded past their key writes back the bytes a
// pass that decoded every record wrote (golden, taken from that pass):
// each kept record under its pid and DTS, its tuple as it was read. Six
// side-A records spill at 20; a first pass (all fresh) gives keys 2 and 3
// a pid; a side-B arrival with key 5 at 40 is the only fresh tuple of the
// second pass, which decodes key 5's record alone, drops keys 1 and 4,
// and keeps 0, 2 and 3 without decoding them.
func TestRewriteKeepsKeyOnlyRecords(t *testing.T) {
	const golden = "2600140000000000000002010000000000000001000000000000000003097061796c6f61642d30" +
		"27c801140000000000000002030000000000000001020000000000000003097061796c6f61642d32" +
		"27ac02140000000000000002040000000000000001030000000000000003097061796c6f61642d33" +
		"2600140000000000000002060000000000000001050000000000000003097061796c6f61642d35"
	spill := store.NewMemSpill()
	b, results := newBase(t, 1)
	stA, err := store.NewState("A", 0, 1, spill)
	if err != nil {
		t.Fatal(err)
	}
	b.States[0] = stA
	for k := int64(0); k < 6; k++ {
		if _, err := stA.Insert(stream.MustTuple(scA, stream.Time(k+1), value.Int(k), value.Str(fmt.Sprintf("payload-%d", k)))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stA.SpillBucket(0, 20); err != nil {
		t.Fatal(err)
	}
	if err := runPass(b, 30, PassHooks{IndexDisk: func(_ int, s *store.StoredTuple) {
		if k := s.T.Values[0].IntVal(); k == 2 || k == 3 {
			s.PID = punct.PID(100 * k)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.States[1].Insert(bTup(5, 40)); err != nil {
		t.Fatal(err)
	}
	decoded := b.M.DiskDecoded
	if err := runPass(b, 50, PassHooks{DropDisk: func(_ int, key value.Value, _ int) bool {
		return key.IntVal() == 1 || key.IntVal() == 4
	}}); err != nil {
		t.Fatal(err)
	}
	if n := b.M.DiskDecoded - decoded; n != 1 || len(*results) != 1 {
		t.Fatalf("second pass decoded %d records and joined %d pairs, want key 5's record and its one pair", n, len(*results))
	}
	raw, err := readPartition(spill, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(raw); got != golden {
		t.Errorf("partition after the rewrite\n %s, want\n %s", got, golden)
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
// discards; without hooks it is a pass that does no punctuation work.
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
	// pidOf: the pid assigned to each tuple (by payload). A tuple that
	// comes back without it is one whose rewrite lost the assignment.
	pidOf := map[string]punct.PID{}
	hooks := PassHooks{}
	if hooked {
		hooks = PassHooks{
			OnBucketOpen: func() { dropClosed = closed },
			IndexDisk: func(side int, s *store.StoredTuple) {
				key, payload := s.T.Values[0].IntVal(), s.T.Values[1].StrVal()
				if pid, ok := pidOf[payload]; ok {
					t.Errorf("disk tuple %v came back without its pid %d", s.T, pid)
				}
				if closed[side][key] {
					s.PID = punct.PID(key + 1)
					pidOf[payload] = s.PID
					indexed++
				}
			},
			DropDisk: func(side int, key value.Value, _ int) bool {
				return dropClosed[1-side][key.IntVal()]
			},
			OnDiscard: func(side int, s *store.StoredTuple) {
				if s.PID != punct.NoPID && (s.T != nil && s.PID != pidOf[s.T.Values[1].StrVal()] || s.PID > keys) {
					t.Errorf("tuple %v leaves with pid %d", s.T, s.PID)
				}
				discarded++
			},
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
