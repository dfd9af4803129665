package joinbase

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"pjoin/internal/store"
	"pjoin/internal/stream"
	"pjoin/internal/value"
	"pjoin/internal/vtime"
)

// TestRandomScheduleExactlyOnce drives Base through random interleavings
// of arrivals, spills, purges-to-buffer and disk passes, and checks the
// emitted pair multiset equals the exact equi-join: every matching pair
// exactly once, regardless of when residence intervals were cut.
func TestRandomScheduleExactlyOnce(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := vtime.NewRNG(seed)
			b, results := newBase(t, 2)

			type ref struct {
				side int
				id   int
				key  int64
			}
			var all []ref
			nextID := [2]int{}
			var ts stream.Time
			// banned[s][k]: side s may no longer emit key k, because a
			// tuple with key k on the OTHER side was purge-buffered —
			// the purge buffer contract is "no future opposite arrivals
			// match" (it exists for punctuation-purged tuples).
			banned := [2]map[int64]bool{{}, {}}

			mkTuple := func(side int, key int64) *stream.Tuple {
				ts++
				id := nextID[side]
				nextID[side]++
				all = append(all, ref{side: side, id: id, key: key})
				payload := fmt.Sprintf("%d#%d", side, id)
				if side == 0 {
					return stream.MustTuple(scA, ts, value.Int(key), value.Str(payload))
				}
				return stream.MustTuple(scB, ts, value.Int(key), value.Str(payload))
			}

			const steps = 120
			for i := 0; i < steps; i++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4, 5: // arrival
					side := rng.Intn(2)
					key := int64(rng.Intn(5))
					if banned[side][key] {
						continue
					}
					tp := mkTuple(side, key)
					if _, err := b.ProbeOpposite(side, tp); err != nil {
						t.Fatal(err)
					}
					if _, err := b.States[side].Insert(tp); err != nil {
						t.Fatal(err)
					}
				case 6, 7: // spill a random victim bucket
					side := rng.Intn(2)
					if v := b.States[side].LargestMemBucket(); v >= 0 {
						ts++
						if _, err := b.States[side].SpillBucket(v, ts); err != nil {
							t.Fatal(err)
						}
					}
				case 8: // move a random memory tuple to the purge buffer
					side := rng.Intn(2)
					st := b.States[side]
					for bu := 0; bu < st.NumBuckets(); bu++ {
						if st.Bucket(bu).MemLen() == 0 {
							continue
						}
						victim := st.Bucket(bu).AppendMem(nil)[0]
						removed := st.FilterMem(bu, func(s *store.StoredTuple) bool { return s == victim })
						ts++
						st.AddToPurgeBuffer(bu, removed[0], ts)
						// Honour the purge-buffer contract: the other
						// side will never emit this key again.
						banned[1-side][victim.T.Values[0].IntVal()] = true
						break
					}
				case 9: // disk pass
					ts++
					if err := runPass(b, ts, PassHooks{}); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Final pass reaches everything left over. Note purge-buffer
			// tuples must be fully joined BEFORE they were buffered for
			// this schedule to be join-preserving; since this test
			// buffers arbitrary tuples (no punctuation guarantees), run
			// the final pass first, which completes their left-over
			// joins before discarding them.
			ts++
			if err := runPass(b, ts, PassHooks{}); err != nil {
				t.Fatal(err)
			}

			// Oracle: every (A-tuple, B-tuple) pair with equal keys.
			want := map[string]int{}
			for _, x := range all {
				if x.side != 0 {
					continue
				}
				for _, y := range all {
					if y.side != 1 || y.key != x.key {
						continue
					}
					want[fmt.Sprintf("%d#%d|%d#%d", 0, x.id, 1, y.id)]++
				}
			}
			got := map[string]int{}
			for _, r := range *results {
				got[fmt.Sprintf("%s|%s", r.Values[1].StrVal(), r.Values[3].StrVal())]++
			}
			var keys []string
			for k := range want {
				keys = append(keys, k)
			}
			for k := range got {
				if _, ok := want[k]; !ok {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			bad := 0
			for _, k := range keys {
				if got[k] != want[k] {
					bad++
					if bad <= 5 {
						t.Errorf("pair %q: got %d, want %d", k, got[k], want[k])
					}
				}
			}
			if bad > 5 {
				t.Errorf("... and %d more mismatches", bad-5)
			}
		})
	}
}

// TestPurgeBufferTupleNotProbedByLaterArrivals documents the contract
// that purge-buffered tuples are invisible to the memory join: probing
// only sees the Mem portion.
func TestPurgeBufferTupleNotProbedByLaterArrivals(t *testing.T) {
	b, results := newBase(t, 1)
	sd, _ := b.States[0].Insert(aTup(1, 1))
	removed := b.States[0].FilterMem(0, func(x *store.StoredTuple) bool { return x == sd })
	b.States[0].AddToPurgeBuffer(0, removed[0], 2)
	if _, err := b.ProbeOpposite(1, bTup(1, 3)); err != nil {
		t.Fatal(err)
	}
	if len(*results) != 0 {
		t.Error("purge-buffered tuple was probed")
	}
}

// Metrics must be internally consistent after a random run.
func TestMetricsConsistency(t *testing.T) {
	b, results := newBase(t, 2)
	rng := vtime.NewRNG(3)
	var ts stream.Time
	for i := 0; i < 200; i++ {
		side := rng.Intn(2)
		ts++
		var tp *stream.Tuple
		if side == 0 {
			tp = aTup(int64(rng.Intn(4)), ts)
		} else {
			tp = bTup(int64(rng.Intn(4)), ts)
		}
		if _, err := b.ProbeOpposite(side, tp); err != nil {
			t.Fatal(err)
		}
		b.States[side].Insert(tp)
		if i%37 == 0 {
			ts++
			// Spill through Relocate so the metrics are exercised.
			if err := b.Relocate(ts, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	ts++
	if err := runPass(b, ts, PassHooks{}); err != nil {
		t.Fatal(err)
	}
	m := b.M
	if int(m.TuplesOut) != len(*results) {
		t.Errorf("TuplesOut %d != emitted %d", m.TuplesOut, len(*results))
	}
	if m.DiskJoins > m.DiskExamined {
		t.Error("more disk joins than pair checks")
	}
	if m.SpilledTuples == 0 || m.Relocations == 0 {
		t.Error("spills not recorded")
	}
	if m.DiskPasses != 1 {
		t.Errorf("DiskPasses = %d", m.DiskPasses)
	}
}

// A quick sanity check that results render with both sides' payloads,
// guarding the orientation contract the property test depends on.
func TestResultPayloadPositions(t *testing.T) {
	b, results := newBase(t, 1)
	b.States[0].Insert(aTup(9, 1))
	if _, err := b.ProbeOpposite(1, bTup(9, 2)); err != nil {
		t.Fatal(err)
	}
	r := (*results)[0]
	if !strings.Contains(r.Values[1].StrVal(), "a") || !strings.Contains(r.Values[3].StrVal(), "b") {
		t.Errorf("payload positions wrong: %v", r)
	}
}
