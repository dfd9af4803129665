package core_test

import (
	"fmt"
	"strings"
	"testing"

	"pjoin/internal/core"
	"pjoin/internal/event"
	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/oracle"
	"pjoin/internal/punct"
	"pjoin/internal/store"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// Differential test of the punctuation index build: a join that builds
// from the key groups and one forced onto the state scan
// (DisableStateIndex) are driven in lockstep, and after every step the
// whole index must agree — the pid of every stored tuple (memory and
// purge buffers, in bucket order) and the pid, count and indexed flag of
// every set entry. Propagation order follows from those, and is compared
// at the end.

// idxStep is one lockstep action, applied to both joins at time ts.
type idxStep func(j *core.PJoin, ts stream.Time) error

func idxTuple(port int, key int64, payload string) idxStep {
	sc := gen.SchemaA
	if port == 1 {
		sc = gen.SchemaB
	}
	return func(j *core.PJoin, ts stream.Time) error {
		tp := stream.MustTuple(sc, ts, value.Int(key), value.Str(payload))
		return j.Process(port, stream.TupleItem(tp), ts)
	}
}

func idxPunct(port int, key, payload punct.Pattern) idxStep {
	p := punct.MustNew(key, payload)
	return func(j *core.PJoin, ts stream.Time) error {
		return j.Process(port, stream.PunctItem(p, ts), ts)
	}
}

// idxSpill relocates one bucket of one side to disk, so that what the
// other side purges from that bucket afterwards parks in a purge buffer.
func idxSpill(side, bucket int) idxStep {
	return func(j *core.PJoin, ts stream.Time) error {
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

// indexSnapshot renders the punctuation index of j.
func indexSnapshot(j *core.PJoin) string {
	var b strings.Builder
	states, sets := j.StatesForTest(), j.SetsForTest()
	for s := 0; s < 2; s++ {
		for i := 0; i < states[s].NumBuckets(); i++ {
			bk := states[s].Bucket(i)
			bk.ForEachMem(func(sd *store.StoredTuple) {
				fmt.Fprintf(&b, "mem%d/%d@%d=pid%d\n", s, i, sd.ATS(), sd.PID)
			})
			for _, sd := range bk.PurgeBuf {
				fmt.Fprintf(&b, "buf%d/%d@%d=pid%d\n", s, i, sd.ATS(), sd.PID)
			}
		}
		for _, e := range sets[s].Entries() {
			fmt.Fprintf(&b, "set%d pid%d %s count=%d indexed=%v\n", s, e.PID, e.P, e.Count, e.Indexed)
		}
	}
	return b.String()
}

// idxPair is the keyed join, the scanning join and what each propagated.
type idxPair struct {
	joins [2]*core.PJoin
	outs  [2]*op.Collector
}

// collide is a hash under which most keys share their full 64-bit hash,
// so key groups are told apart by equality alone.
func collide(v value.Value) uint64 { return uint64(v.IntVal()) % 3 }

func newIdxPair(t *testing.T, cfg core.Config, colliding bool) *idxPair {
	t.Helper()
	p := &idxPair{}
	for i := range p.joins {
		cfg.DisableStateIndex = i == 1
		p.outs[i] = &op.Collector{}
		j, err := core.New(cfg, p.outs[i])
		if err != nil {
			t.Fatal(err)
		}
		if colliding {
			for _, st := range j.StatesForTest() {
				st.SetHashFuncForTest(collide)
			}
		}
		p.joins[i] = j
	}
	return p
}

// both applies one action to the two joins and holds their indexes equal.
func (p *idxPair) both(t *testing.T, what string, do func(*core.PJoin) error) {
	t.Helper()
	for i, j := range p.joins {
		if err := do(j); err != nil {
			t.Fatalf("%s, join %d: %v", what, i, err)
		}
	}
	if keyed, scan := indexSnapshot(p.joins[0]), indexSnapshot(p.joins[1]); keyed != scan {
		t.Fatalf("%s: punctuation index diverges\nkeyed build:\n%s\nscan build:\n%s", what, keyed, scan)
	}
}

// finish ends both joins and compares what they propagated, in order.
func (p *idxPair) finish(t *testing.T, ts stream.Time) {
	t.Helper()
	for port := 0; port < 2; port++ {
		ts++
		p.both(t, fmt.Sprintf("EOS port %d", port), func(j *core.PJoin) error {
			return j.Process(port, stream.EOSItem(ts), ts)
		})
	}
	p.both(t, "Finish", func(j *core.PJoin) error { return j.Finish(ts + 1) })
	keyed, scan := p.outs[0].Puncts(), p.outs[1].Puncts()
	if len(keyed) != len(scan) {
		t.Fatalf("keyed build propagated %d punctuations, scan build %d", len(keyed), len(scan))
	}
	for i := range keyed {
		if !keyed[i].Punct.Equal(scan[i].Punct) || keyed[i].Ts != scan[i].Ts {
			t.Fatalf("propagated punctuation %d: keyed build %v, scan build %v", i, keyed[i], scan[i])
		}
	}
}

func (p *idxPair) indexScanned() (keyed, scan int64) {
	return p.joins[0].Metrics().IndexScanned, p.joins[1].Metrics().IndexScanned
}

func TestIndexBuildKeyedMatchesScan(t *testing.T) {
	star := punct.Star()
	shapes := []struct {
		name           string
		propagateCount int
		steps          []idxStep
		// wholeBatchScans: some batch holds a range, so the keyed join
		// scans too and visits exactly what the scanning join visits.
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
					NumBuckets: 4, RetainPropagated: true, VerifyPunctuations: true,
					Thresholds: event.Thresholds{Purge: 1, PropagateCount: sh.propagateCount},
				}
				p := newIdxPair(t, cfg, colliding)
				var ts stream.Time
				for i, step := range sh.steps {
					ts++
					p.both(t, fmt.Sprintf("step %d", i), func(j *core.PJoin) error { return step(j, ts) })
				}
				keyed, scan := p.indexScanned()
				if sh.wholeBatchScans && keyed != scan {
					t.Errorf("a batch with a range scans whole: keyed build visited %d tuples, scan build %d", keyed, scan)
				}
				if !sh.wholeBatchScans && (keyed == 0 || keyed >= scan) {
					t.Errorf("keyed build visited %d tuples, scan build %d: want fewer, and some", keyed, scan)
				}
				p.finish(t, ts)
			})
		}
	}
}

// TestIndexBuildKeyedVisitsPurgeBuffers parks tuples in a purge buffer
// before their own side's punctuation arrives: the keyed build must find
// them there, as the scan does.
func TestIndexBuildKeyedVisitsPurgeBuffers(t *testing.T) {
	for _, colliding := range []bool{false, true} {
		t.Run(fmt.Sprintf("colliding=%v", colliding), func(t *testing.T) {
			cfg := core.Config{
				SchemaA: gen.SchemaA, SchemaB: gen.SchemaB, AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
				NumBuckets: 1, RetainPropagated: true,
				// Pull mode: nothing propagates (and no disk pass empties the
				// purge buffers) before the builds under test have run.
				EagerIndex: true,
			}
			p := newIdxPair(t, cfg, colliding)
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
				p.both(t, fmt.Sprintf("step %d", i), func(j *core.PJoin) error { return step(j, ts) })
			}
			for i, j := range p.joins {
				if _, b := j.StateStats(); b.PurgeTuples != 4 || b.MemTuples != 2 {
					t.Fatalf("join %d: side B holds %d parked and %d resident tuples, want 4 and 2", i, b.PurgeTuples, b.MemTuples)
				}
			}
			// B closes key 1 for payload b1 only, then keys 1 and 0 outright:
			// every match but key 0's sits in the purge buffer.
			for i, step := range []idxStep{
				idxPunct(1, idxKey(1), punct.Const(value.Str("b1"))),
				idxPunct(1, idxKey(1), punct.Star()),
				idxPunct(1, idxKey(0), punct.Star()),
			} {
				ts++
				p.both(t, fmt.Sprintf("B punctuation %d", i), func(j *core.PJoin) error { return step(j, ts) })
			}
			for i, want := range []int{1, 1, 2} {
				if e := p.joins[0].SetsForTest()[1].Entries()[i]; e.Count != want || !e.Indexed {
					t.Errorf("B entry %d (%s): count %d indexed %v, want count %d from the purge buffer",
						i, e.P, e.Count, e.Indexed, want)
				}
			}
			p.finish(t, ts)
		})
	}
}

// TestIndexBuildKeyedOnOracleScenarios holds the two builds together over
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
					Thresholds: event.Thresholds{
						Purge: sc.Purge, MemoryBytes: sc.MemoryBytes,
						DiskJoinIdle: sc.DiskJoinIdle, PropagateCount: propagateCount,
					},
					EagerIndex:         sc.EagerIndex,
					RetainPropagated:   true,
					VerifyPunctuations: true,
				}
				p := newIdxPair(t, cfg, colliding)
				name := fmt.Sprintf("seed %d, propagate count %d, colliding %v", seed, propagateCount, colliding)
				var last stream.Time
				for i, a := range sc.Arrivals {
					if sc.IdleEvery > 0 && i%sc.IdleEvery == sc.IdleEvery-1 && a.Item.Ts > last+1 {
						p.both(t, fmt.Sprintf("%s: idle before arrival %d", name, i), func(j *core.PJoin) error {
							_, err := j.OnIdle(a.Item.Ts - 1)
							return err
						})
					}
					p.both(t, fmt.Sprintf("%s: arrival %d (%v)", name, i, a.Item), func(j *core.PJoin) error {
						return j.Process(a.Port, a.Item, a.Item.Ts)
					})
					last = a.Item.Ts
				}
				p.both(t, name+": Finish", func(j *core.PJoin) error { return j.Finish(last + 1) })
				if keyed, scan := p.indexScanned(); keyed > scan {
					t.Errorf("%s: keyed build visited %d tuples, scan build %d", name, keyed, scan)
				}
			}
		}
	}
}
