package core

import (
	"testing"

	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/store"
	"pjoin/internal/stream"
)

// The table-walk counters, held to their definitions rather than to
// pinned numbers: before every call the test reads the occupancies off
// the states and works out what a hash table that is walked — every probe
// its bucket, every purge run and every index build the table — would
// examine in the call, and after the call ProbeWalk, PurgeWalk and
// IndexWalk must have grown by exactly that.

// walkView is what one call's expectations are computed from.
type walkView struct {
	m       [2]store.Stats
	indexed [2]map[punct.PID]bool // entries a build has processed
	// resident maps every memory-resident tuple to whether it carries a
	// pid; nullDisk counts the disk-resident tuples that carry none.
	resident map[*stream.Tuple]bool
	nullDisk int64
}

func viewOf(t *testing.T, j *PJoin) walkView {
	t.Helper()
	v := walkView{resident: map[*stream.Tuple]bool{}}
	for s, st := range j.StatesForTest() {
		v.m[s] = st.Stats()
		v.indexed[s] = map[punct.PID]bool{}
		for _, e := range j.SetsForTest()[s].Entries() {
			if e.Indexed {
				v.indexed[s][e.PID] = true
			}
		}
		for i := 0; i < st.NumBuckets(); i++ {
			st.Bucket(i).ForEachMem(func(sd *store.StoredTuple) { v.resident[sd.T] = sd.PID != punct.NoPID })
			ForEachDiskForTest(t, st, i, func(sd *store.StoredTuple) {
				if sd.PID == punct.NoPID {
					v.nullDisk++
				}
			})
		}
	}
	return v
}

// probeWalk is what the probe for a side-s arrival walks: the opposite
// bucket's memory portion, less what the window expires first.
func probeWalk(states [2]*store.State, s int, t *stream.Tuple, window stream.Time) int64 {
	opp := states[1-s]
	bkt := opp.Bucket(opp.BucketOf(t.Values[gen.KeyAttr]))
	if window == 0 || t.Ts <= window {
		return int64(bkt.MemLen())
	}
	var n int64
	bkt.ForEachMem(func(sd *store.StoredTuple) {
		if sd.T.Ts >= t.Ts-window {
			n++
		}
	})
	return n
}

func TestWalkCountersMatchOccupancy(t *testing.T) {
	rows := []struct {
		name    string
		batched bool
		mutate  func(*Config)
	}{
		// Eager index: every build runs on arrival, before the call has
		// touched anything, so the disk passes and relocations that share
		// its call do not blur what it walks.
		{name: "spilling", mutate: func(c *Config) {
			c.Thresholds.Purge = 2
			c.Thresholds.MemoryBytes = 8 << 10
			c.Thresholds.DiskJoinIdle = 4 * stream.Millisecond
			c.Thresholds.PropagateCount = 4
			c.EagerIndex = true
		}},
		{name: "lazy-range-puncts", batched: true, mutate: func(c *Config) {
			c.Thresholds.Purge = 5
			c.Thresholds.PropagateCount = 3
		}},
		{name: "window", mutate: func(c *Config) {
			c.Thresholds.Purge = 2
			c.Thresholds.PropagateCount = 2
			c.Window = 200 * stream.Millisecond
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			arrs, err := gen.Synthetic(gen.Config{
				Seed:     7,
				Duration: 1500 * stream.Millisecond,
				A:        gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 15},
				B:        gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 25, Batched: row.batched},
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
				AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
				RetainPropagated: true,
			}
			row.mutate(&cfg)
			j, err := New(cfg, &op.Collector{})
			if err != nil {
				t.Fatal(err)
			}
			spills := cfg.Thresholds.MemoryBytes > 0

			// step runs one call and checks the three counters' growth.
			// port < 0 marks a call that delivers no item (OnIdle, Finish).
			after := viewOf(t, j)
			step := func(what string, port int, it stream.Item, call func() error) {
				t.Helper()
				before, m0 := after, j.Metrics()
				var wantProbe int64
				if port >= 0 && it.Kind == stream.KindTuple {
					wantProbe = probeWalk(j.StatesForTest(), port, it.Tuple, cfg.Window)
				}
				if err := call(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				after = viewOf(t, j)
				m1 := j.Metrics()

				if got := m1.ProbeWalk - m0.ProbeWalk; got != wantProbe {
					t.Fatalf("%s: ProbeWalk grew by %d, the probed bucket held %d", what, got, wantProbe)
				}

				// A punctuation's purge run walks the opposite state, the
				// pair of runs that opens Finish walks both; either runs
				// before the call has changed a memory portion.
				var wantPurge int64
				switch runs := m1.PurgeRuns - m0.PurgeRuns; {
				case runs == 1 && port >= 0 && it.Kind == stream.KindPunct:
					wantPurge = int64(before.m[1-port].MemTuples)
				case runs == 2 && port < 0:
					wantPurge = int64(before.m[0].MemTuples + before.m[1].MemTuples)
				case runs != 0:
					t.Fatalf("%s: %d purge runs in one call", what, runs)
				}
				if got := m1.PurgeWalk - m0.PurgeWalk; got != wantPurge {
					t.Fatalf("%s: PurgeWalk grew by %d, the victim held %d", what, got, wantPurge)
				}

				// A build walks its side's memory portion and purge buffers.
				// An eager build runs as its punctuation arrives, on what the
				// call found; a lazy one runs behind the call's purge, and —
				// these rows have nothing on disk — nothing follows it, so it
				// walks what the call leaves.
				var wantIndex int64
				built := false
				for s := 0; s < 2; s++ {
					flipped := false
					for pid := range after.indexed[s] {
						flipped = flipped || !before.indexed[s][pid]
					}
					if !flipped {
						continue
					}
					built = true
					at := after
					if cfg.EagerIndex {
						at = before
					} else if spills {
						t.Fatalf("%s: lazy build in a spilling row: the test cannot place it", what)
					}
					wantIndex += int64(at.m[s].MemTuples + at.m[s].PurgeTuples)
				}
				// Tuples indexed one at a time cost one each, in both
				// accountings: the null-pid tuples a relocation moves to disk
				// (the arrival itself may be among them), and the null-pid
				// disk tuples a pass reads — every one there is. Only a
				// tuple's arrival relocates, and nothing else takes a tuple
				// out of memory in that call, so the moved ones are those
				// no longer resident (by tuple: the state recycles the
				// wrappers it spills).
				var moved, movedNull int64
				for tu, hasPID := range before.resident {
					if _, still := after.resident[tu]; !still {
						moved++
						if !hasPID {
							movedNull++
						}
					}
				}
				if relocated := m1.SpilledTuples - m0.SpilledTuples; relocated > 0 {
					wantIndex += movedNull + (relocated - moved)
				}
				switch passes := m1.DiskPasses - m0.DiskPasses; {
				case passes == 1:
					wantIndex += before.nullDisk
				case passes > 1:
					// Back-to-back passes (end of stream): the second reads
					// what the first left. No build shares the call, so the
					// engine's own count is the per-tuple one.
					if built {
						t.Fatalf("%s: %d passes and a build in one call", what, passes)
					}
					wantIndex = m1.IndexScanned - m0.IndexScanned
				}
				if got := m1.IndexWalk - m0.IndexWalk; got != wantIndex {
					t.Fatalf("%s: IndexWalk grew by %d, want %d (built=%v, null-pid on disk %d)",
						what, got, wantIndex, built, before.nullDisk)
				}
				if !built && m1.IndexWalk-m0.IndexWalk != m1.IndexScanned-m0.IndexScanned {
					t.Fatalf("%s: no build, yet IndexWalk grew by %d and IndexScanned by %d",
						what, m1.IndexWalk-m0.IndexWalk, m1.IndexScanned-m0.IndexScanned)
				}
			}

			var last stream.Time
			for i, a := range arrs {
				if i%64 == 63 && a.Item.Ts > last+1 {
					step("idle", -1, stream.Item{Ts: a.Item.Ts - 1}, func() error {
						_, err := j.OnIdle(a.Item.Ts - 1)
						return err
					})
				}
				step(a.Item.String(), a.Port, a.Item, func() error { return j.Process(a.Port, a.Item, a.Item.Ts) })
				last = a.Item.Ts
			}
			for port := 0; port < 2; port++ {
				last++
				eos := stream.EOSItem(last)
				step("EOS", port, eos, func() error { return j.Process(port, eos, last) })
			}
			last++
			step("Finish", -1, stream.Item{Ts: last}, func() error { return j.Finish(last) })

			m := j.Metrics()
			if m.ProbeWalk == 0 || m.PurgeWalk == 0 || m.IndexWalk == 0 {
				t.Errorf("vacuous run: walk counters %d/%d/%d", m.ProbeWalk, m.PurgeWalk, m.IndexWalk)
			}
			if spills && (m.Relocations == 0 || m.DiskPasses == 0) {
				t.Errorf("spilling row never spilled: %+v", m)
			}
		})
	}
}
