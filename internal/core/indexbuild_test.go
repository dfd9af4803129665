package core_test

import (
	"fmt"
	"testing"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/oracle"
	"pjoin/internal/punct"
	"pjoin/internal/store"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// Model test of the punctuation index build (paper Fig. 3, Index-Build).
// The join builds from the key groups whenever a batch allows it; the
// reference it is held to is the figure itself, by brute force, after
// every step: every stored tuple of a side (memory, purge buffers, disk)
// against that side's entries in arrival order gives the pid the tuple
// must carry, the tuples carrying a pid give the entry's count, and the
// entries that flipped to indexed must be a whole pending batch. What a
// step propagates follows from those — the entries that reached count
// zero, side by side in arrival order — and is compared as it is emitted.

// idxStep is one action on the join at time ts.
type idxStep func(j *idxJoin, ts stream.Time) error

// idxJoin is the join under test, remembering the punctuation each entry
// arrived as: a released entry may retire, leaving the set for its
// closed keys.
type idxJoin struct {
	*core.PJoin
	arrived [2]map[punct.PID]punct.Punctuation
}

func (j *idxJoin) Process(port int, it stream.Item, now stream.Time) error {
	set := j.SetsForTest()[port]
	before := set.MaxPID()
	err := j.PJoin.Process(port, it, now)
	if pid := set.MaxPID(); pid != before {
		j.arrived[port][pid] = it.Punct
	}
	return err
}

func idxTuple(port int, key int64, payload string) idxStep {
	sc := gen.SchemaA
	if port == 1 {
		sc = gen.SchemaB
	}
	return func(j *idxJoin, ts stream.Time) error {
		tp := stream.MustTuple(sc, ts, value.Int(key), value.Str(payload))
		return j.Process(port, stream.TupleItem(tp), ts)
	}
}

func idxPunct(port int, key, payload punct.Pattern) idxStep {
	p := punct.MustNew(key, payload)
	return func(j *idxJoin, ts stream.Time) error {
		return j.Process(port, stream.PunctItem(p, ts), ts)
	}
}

// idxSpill relocates one bucket of one side to disk, so that what the
// other side purges from that bucket afterwards parks in a purge buffer.
func idxSpill(side, bucket int) idxStep {
	return func(j *idxJoin, ts stream.Time) error {
		_, err := j.StatesForTest()[side].SpillBucket(bucket, ts)
		return err
	}
}

func idxKey(k int64) punct.Pattern { return punct.Const(value.Int(k)) }

func idxKeys(ks ...int64) punct.Pattern {
	vs := make([]value.Value, len(ks))
	for i, k := range ks {
		vs[i] = value.Int(k)
	}
	return punct.MustEnum(vs...)
}

func idxRange(lo, hi int64) punct.Pattern { return punct.MustRange(value.Int(lo), value.Int(hi)) }

// idxFill puts n tuples per side on each of keys 0..keys-1; tuple r of a
// key carries payload "p<r>".
func idxFill(keys, n int) []idxStep {
	var steps []idxStep
	for r := 0; r < n; r++ {
		for k := int64(0); k < int64(keys); k++ {
			steps = append(steps, idxTuple(0, k, fmt.Sprintf("p%d", r)), idxTuple(1, k, fmt.Sprintf("p%d", r)))
		}
	}
	return steps
}

// collide is a hash under which most keys share their full 64-bit hash,
// so key groups are told apart by equality alone.
func collide(v value.Value) uint64 { return uint64(v.IntVal()) % 3 }

// idxRun is the join under test, what it propagated, and what the last
// check saw of its index: which entries were indexed and propagated, and
// how much of the output had been read.
type idxRun struct {
	j                   *idxJoin
	out                 *op.Collector
	indexed, propagated [2]map[punct.PID]bool
	seen                int
}

func newIdxRun(t *testing.T, cfg core.Config, colliding bool) *idxRun {
	t.Helper()
	r := &idxRun{out: &op.Collector{}}
	for s := range r.indexed {
		r.indexed[s], r.propagated[s] = map[punct.PID]bool{}, map[punct.PID]bool{}
	}
	j, err := core.New(cfg, r.out)
	if err != nil {
		t.Fatal(err)
	}
	if colliding {
		for _, st := range j.StatesForTest() {
			st.SetHashFuncForTest(collide)
		}
	}
	r.j = &idxJoin{PJoin: j, arrived: [2]map[punct.PID]punct.Punctuation{{}, {}}}
	return r
}

// firstMatch is Fig. 3's assignment rule: the pid of the first-arrived
// entry, among those the build has (or, with all set, will have)
// processed, that matches the tuple.
func firstMatch(entries []*punct.Entry, sd *store.StoredTuple, all bool) punct.PID {
	for _, e := range entries {
		if (all || e.Indexed) && e.P.Matches(sd.T.Values) {
			return e.PID
		}
	}
	return punct.NoPID
}

// do applies one action at time ts and holds the join's index to the
// brute-force one.
func (r *idxRun) do(t *testing.T, what string, ts stream.Time, act func(*idxJoin) error) {
	t.Helper()
	if err := act(r.j); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	states, sets := r.j.StatesForTest(), r.j.SetsForTest()
	var released []punct.Punctuation
	for s := 0; s < 2; s++ {
		st, entries := states[s], sets[s].Entries()
		carried := map[punct.PID]int{}
		// Memory and purge buffers are what every build walks: a tuple
		// there carries the first indexed match, or nothing.
		resident := func(where string, i int) func(*store.StoredTuple) {
			return func(sd *store.StoredTuple) {
				if want := firstMatch(entries, sd, false); sd.PID != want {
					t.Fatalf("%s: side %d %s %d tuple @%d %v carries pid %d, the first indexed match is pid %d",
						what, s, where, i, sd.ATS, sd.T.Values, sd.PID, want)
				}
				carried[sd.PID]++
			}
		}
		for i := 0; i < st.NumBuckets(); i++ {
			st.Bucket(i).ForEachMem(resident("bucket", i))
			for _, sd := range st.Bucket(i).PurgeBuf {
				resident("purge buffer", i)(sd)
			}
			// A disk tuple is indexed one at a time against the whole set,
			// when it is relocated or when a pass reads it: until then it
			// may carry nothing, never a later match.
			core.ForEachDiskForTest(t, st, i, func(sd *store.StoredTuple) {
				if want := firstMatch(entries, sd, true); sd.PID != punct.NoPID && sd.PID != want {
					t.Fatalf("%s: side %d disk %d tuple @%d %v carries pid %d, the first match is pid %d",
						what, s, i, sd.ATS, sd.T.Values, sd.PID, want)
				}
				carried[sd.PID]++
			})
		}
		built, pending := 0, 0
		for _, e := range entries {
			if e.Count != carried[e.PID] {
				t.Fatalf("%s: side %d pid %d %s counts %d tuples, %d carry its pid", what, s, e.PID, e.P, e.Count, carried[e.PID])
			}
			switch {
			case e.Indexed && !r.indexed[s][e.PID]:
				built++
				r.indexed[s][e.PID] = true
			case !e.Indexed && r.indexed[s][e.PID]:
				t.Fatalf("%s: side %d pid %d %s is no longer indexed", what, s, e.PID, e.P)
			case !e.Indexed:
				pending++
			}
			if e.Propagated && (!e.Indexed || e.Count != 0) {
				t.Fatalf("%s: side %d pid %d %s propagated with indexed=%v count=%d", what, s, e.PID, e.P, e.Indexed, e.Count)
			}
		}
		// Released since the last check: propagated, or gone — only a
		// released entry retires — in arrival order, as it arrived.
		for pid := punct.PID(1); pid <= sets[s].MaxPID(); pid++ {
			if e := sets[s].Get(pid); r.propagated[s][pid] || e != nil && !e.Propagated {
				continue
			}
			r.propagated[s][pid] = true
			outP, err := core.OutputPunctuation(gen.SchemaA, gen.SchemaB, s, r.j.arrived[s][pid])
			if err != nil {
				t.Fatal(err)
			}
			released = append(released, outP)
		}
		if built > 0 && pending > 0 {
			t.Fatalf("%s: side %d build indexed %d entries and left %d pending: a build takes the whole batch", what, s, built, pending)
		}
	}
	// Propagation order: side A's released entries in arrival order, then
	// side B's, all stamped with the step's time.
	for _, it := range r.out.Items[r.seen:] {
		if it.Kind != stream.KindPunct {
			continue
		}
		if len(released) == 0 {
			t.Fatalf("%s: emitted %v, which no entry accounts for", what, it)
		}
		if !it.Punct.Equal(released[0]) || it.Ts != ts {
			t.Fatalf("%s: emitted %v, the index releases %s at %d next", what, it, released[0], ts)
		}
		released = released[1:]
	}
	if len(released) != 0 {
		t.Fatalf("%s: %d released entries were never emitted, first %s", what, len(released), released[0])
	}
	r.seen = len(r.out.Items)
}

// finish ends the join; with nothing left to wait for, every entry is
// indexed and every entry no stored tuple carries has been propagated.
func (r *idxRun) finish(t *testing.T, ts stream.Time) {
	t.Helper()
	for port := 0; port < 2; port++ {
		ts++
		r.do(t, fmt.Sprintf("EOS port %d", port), ts, func(j *idxJoin) error {
			return j.Process(port, stream.EOSItem(ts), ts)
		})
	}
	ts++
	r.do(t, "Finish", ts, func(j *idxJoin) error { return j.Finish(ts) })
	r.finished(t, "Finish")
}

func (r *idxRun) finished(t *testing.T, what string) {
	t.Helper()
	for s, set := range r.j.SetsForTest() {
		for _, e := range set.Entries() {
			if !e.Indexed || (e.Count == 0) != e.Propagated {
				t.Errorf("%s: side %d pid %d %s ends indexed=%v count=%d propagated=%v",
					what, s, e.PID, e.P, e.Indexed, e.Count, e.Propagated)
			}
		}
	}
}

// indexScanned returns what the join's builds visited and what builds
// that walk the table would have.
func (r *idxRun) indexScanned() (keyed, scan int64) {
	m := r.j.Metrics()
	return m.IndexScanned, m.IndexWalk
}

func TestIndexBuildKeyedMatchesScan(t *testing.T) {
	star := punct.Star()
	shapes := []struct {
		name           string
		propagateCount int
		steps          []idxStep
		// wholeBatchScans: every batch holds a range, so the join scans
		// and visits exactly what a build that walks the table visits.
		wholeBatchScans bool
	}{
		{name: "constant", propagateCount: 1, steps: append(idxFill(6, 2),
			idxPunct(0, idxKey(2), star), idxPunct(1, idxKey(2), star),
			idxPunct(1, idxKey(4), star), idxPunct(0, idxKey(4), star))},
		{name: "enum", propagateCount: 1, steps: append(idxFill(6, 2),
			idxPunct(0, idxKeys(1, 3, 4), star), idxPunct(1, idxKeys(3, 4), star),
			idxPunct(1, idxKey(1), star))},
		// The key is pinned but so is the payload: only some of the key's
		// group matches, and the rest must keep a null pid for the
		// exhaustive punctuation that follows.
		{name: "non-exhaustive constant", propagateCount: 1, steps: append(idxFill(4, 3),
			idxPunct(0, idxKey(2), punct.Const(value.Str("p1"))),
			idxPunct(0, idxKey(2), star),
			idxPunct(1, idxKeys(1, 2), punct.Const(value.Str("p0"))),
			idxPunct(1, idxKey(2), star))},
		{name: "range", propagateCount: 1, wholeBatchScans: true, steps: append(idxFill(6, 2),
			idxPunct(0, idxRange(0, 3), star), idxPunct(1, idxRange(0, 2), star),
			idxPunct(1, idxRange(4, 5), star))},
		// One lazy batch of three: the first-arrived match wins, so key 5
		// belongs to the constant, 4 and 6 to the range behind it.
		{name: "mixed lazy batch", propagateCount: 3, wholeBatchScans: true, steps: append(idxFill(8, 2),
			idxPunct(0, idxKey(5), star), idxPunct(0, idxRange(4, 6), star), idxPunct(0, idxKey(7), star),
			idxPunct(1, idxKey(6), star), idxPunct(1, idxRange(5, 7), star), idxPunct(1, idxKey(0), star))},
		// The same, all keyed: constant, then an enumeration and a
		// non-exhaustive constant that overlap it.
		{name: "keyed lazy batch", propagateCount: 3, steps: append(idxFill(8, 2),
			idxPunct(0, idxKey(5), punct.Const(value.Str("p1"))), idxPunct(0, idxKeys(5, 6), star), idxPunct(0, idxKey(7), star),
			idxPunct(1, idxKey(5), star), idxPunct(1, idxKeys(6, 7), star), idxPunct(1, idxKey(0), star))},
	}
	for _, sh := range shapes {
		for _, colliding := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/colliding=%v", sh.name, colliding), func(t *testing.T) {
				cfg := core.Config{
					SchemaA: gen.SchemaA, SchemaB: gen.SchemaB, AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
					NumBuckets: 4, VerifyPunctuations: true,
					Thresholds: core.Thresholds{Purge: 1, PropagateCount: sh.propagateCount},
				}
				r := newIdxRun(t, cfg, colliding)
				var ts stream.Time
				for i, step := range sh.steps {
					ts++
					r.do(t, fmt.Sprintf("step %d", i), ts, func(j *idxJoin) error { return step(j, ts) })
				}
				keyed, scan := r.indexScanned()
				if sh.wholeBatchScans && keyed != scan {
					t.Errorf("a batch with a range scans whole: the build visited %d tuples, a table walk %d", keyed, scan)
				}
				if !sh.wholeBatchScans && (keyed == 0 || keyed >= scan) {
					t.Errorf("keyed build visited %d tuples, a table walk %d: want fewer, and some", keyed, scan)
				}
				r.finish(t, ts)
			})
		}
	}
}

// TestIndexBuildKeyedVisitsPurgeBuffers parks tuples in a purge buffer
// before their own side's punctuation arrives: the keyed build must find
// them there, as a build that walks the table does.
func TestIndexBuildKeyedVisitsPurgeBuffers(t *testing.T) {
	for _, colliding := range []bool{false, true} {
		t.Run(fmt.Sprintf("colliding=%v", colliding), func(t *testing.T) {
			cfg := core.Config{
				SchemaA: gen.SchemaA, SchemaB: gen.SchemaB, AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
				NumBuckets: 1,
				// Pull mode: nothing propagates (and no disk pass empties the
				// purge buffers) before the builds under test have run.
				EagerIndex: true,
			}
			r := newIdxRun(t, cfg, colliding)
			var steps []idxStep
			for k := int64(0); k < 3; k++ {
				steps = append(steps, idxTuple(0, k, "a"))
			}
			steps = append(steps, idxSpill(0, 0)) // side A of the one bucket is on disk
			for k := int64(0); k < 3; k++ {
				steps = append(steps, idxTuple(1, k, "b0"), idxTuple(1, k, "b1"))
			}
			// A closes keys 1 and 2: B's groups leave memory for the purge
			// buffer, still owing joins against A's disk portion.
			steps = append(steps, idxPunct(0, idxKeys(1, 2), punct.Star()))
			var ts stream.Time
			for i, step := range steps {
				ts++
				r.do(t, fmt.Sprintf("step %d", i), ts, func(j *idxJoin) error { return step(j, ts) })
			}
			if _, b := r.j.StateStats(); b.PurgeTuples != 4 || b.MemTuples != 2 {
				t.Fatalf("side B holds %d parked and %d resident tuples, want 4 and 2", b.PurgeTuples, b.MemTuples)
			}
			// B closes key 1 for payload b1 only, then keys 1 and 0 outright:
			// every match but key 0's sits in the purge buffer.
			for i, step := range []idxStep{
				idxPunct(1, idxKey(1), punct.Const(value.Str("b1"))),
				idxPunct(1, idxKey(1), punct.Star()),
				idxPunct(1, idxKey(0), punct.Star()),
			} {
				ts++
				r.do(t, fmt.Sprintf("B punctuation %d", i), ts, func(j *idxJoin) error { return step(j, ts) })
			}
			for i, want := range []int{1, 1, 2} {
				if e := r.j.SetsForTest()[1].Entries()[i]; e.Count != want || !e.Indexed {
					t.Errorf("B entry %d (%s): count %d indexed %v, want count %d from the purge buffer",
						i, e.P, e.Count, e.Indexed, want)
				}
			}
			r.finish(t, ts)
		})
	}
}

// TestIndexBuildKeyedOnOracleScenarios holds the build to the model over
// the differential oracle's workloads — every pattern kind, relocation,
// purge buffers, disk passes — per-item, with propagation after every
// punctuation and in lazy batches of three.
func TestIndexBuildKeyedOnOracleScenarios(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		sc := oracle.FromSeed(seed)
		for _, propagateCount := range []int{sc.PropagateCount, 3} {
			for _, colliding := range []bool{false, true} {
				cfg := core.Config{
					SchemaA: gen.SchemaA, SchemaB: gen.SchemaB, AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
					NumBuckets: sc.NumBuckets,
					Thresholds: core.Thresholds{
						Purge: sc.Purge, MemoryBytes: sc.MemoryBytes,
						DiskJoinIdle: sc.DiskJoinIdle, PropagateCount: propagateCount,
					},
					EagerIndex:         sc.EagerIndex,
					VerifyPunctuations: true,
				}
				r := newIdxRun(t, cfg, colliding)
				name := fmt.Sprintf("seed %d, propagate count %d, colliding %v", seed, propagateCount, colliding)
				var last stream.Time
				for i, a := range sc.Arrivals {
					if sc.IdleEvery > 0 && i%sc.IdleEvery == sc.IdleEvery-1 && a.Item.Ts > last+1 {
						r.do(t, fmt.Sprintf("%s: idle before arrival %d", name, i), a.Item.Ts-1, func(j *idxJoin) error {
							_, err := j.OnIdle(a.Item.Ts - 1)
							return err
						})
					}
					r.do(t, fmt.Sprintf("%s: arrival %d (%v)", name, i, a.Item), a.Item.Ts, func(j *idxJoin) error {
						return j.Process(a.Port, a.Item, a.Item.Ts)
					})
					last = a.Item.Ts
				}
				r.do(t, name+": Finish", last+1, func(j *idxJoin) error { return j.Finish(last + 1) })
				r.finished(t, name)
				if keyed, scan := r.indexScanned(); keyed > scan {
					t.Errorf("%s: the build visited %d tuples, a table walk %d", name, keyed, scan)
				}
			}
		}
	}
}
