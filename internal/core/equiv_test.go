package core

import (
	"testing"

	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/shj"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// Regression for the key-grouped state index and the table-walk price
// list kept over it. The scan regime this test used to drive in lockstep
// (probes that walked the bucket, purge runs and index builds that walked
// the table) is gone from the engine; what it was a reference for is held
// here instead: the result multiset against the brute-force join, and the
// three walk counters against what that regime's Examined, PurgeScanned
// and IndexScanned read on the commit that deleted it (scanPins). The
// joins are driven through Process/OnIdle/Finish directly — no simulator,
// so the comparison is about operator semantics, not cost feedback.

// equivCase is one configuration regime of the comparison matrix.
type equivCase struct {
	name    string
	batched bool // range punctuations (exercises the purge scan path)
	mutate  func(*Config)
}

func equivCases() []equivCase {
	return []equivCase{
		{name: "eager-const-puncts", mutate: func(c *Config) {
			c.Thresholds.Purge = 1
		}},
		{name: "lazy-range-puncts", batched: true, mutate: func(c *Config) {
			c.Thresholds.Purge = 20
		}},
		{name: "relocation", mutate: func(c *Config) {
			c.Thresholds.Purge = 4
			c.Thresholds.MemoryBytes = 8 << 10
			c.Thresholds.DiskJoinIdle = 4 * stream.Millisecond
		}},
		{name: "compact-sets", batched: true, mutate: func(c *Config) {
			c.Thresholds.Purge = 8 // retired range punctuations join the closed keys
		}},
		{name: "window", mutate: func(c *Config) {
			c.Thresholds.Purge = 2
			c.Window = 200 * stream.Millisecond
		}},
	}
}

// driveEquiv runs one PJoin over the schedule with a deterministic
// OnIdle cadence.
func driveEquiv(t *testing.T, j *PJoin, arrs []gen.Arrival) {
	t.Helper()
	var last stream.Time
	for i, a := range arrs {
		// Idle pulses at a fixed cadence, so the reactive disk join runs
		// at the same points on every commit.
		if i%64 == 63 && a.Item.Ts > last+1 {
			if _, err := j.OnIdle(a.Item.Ts - 1); err != nil {
				t.Fatalf("OnIdle before arrival %d: %v", i, err)
			}
		}
		if err := j.Process(a.Port, a.Item, a.Item.Ts); err != nil {
			t.Fatalf("arrival %d: %v", i, err)
		}
		last = a.Item.Ts
	}
	for port := 0; port < 2; port++ {
		last++
		if err := j.Process(port, stream.EOSItem(last), last); err != nil {
			t.Fatalf("EOS port %d: %v", port, err)
		}
	}
	if err := j.Finish(last + 1); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// scanPins holds, per equivCase and seed 1..3, the scan regime's
// {ProbeWalk, PurgeWalk, IndexWalk} and the punctuations propagated. The
// probe and index columns were read off the parent of the commit that
// removed that regime, over exactly these workloads; the purge and
// punctuation columns were re-read when a released punctuation began to
// stay in force: Finish's final purge adds its walk, and a late tuple is
// dropped instead of holding its own side's punctuation back, so more
// are propagated. They equal what that parent read under retention, bar
// compact-sets, whose compaction merged punctuations before release.
// ProbeWalk, PurgeWalk and IndexWalk are what the paper figures are
// priced by.
var scanPins = map[string][3][4]int64{
	"eager-const-puncts": {{10567, 11639, 462, 62}, {10248, 11649, 452, 66}, {8121, 9867, 561, 44}},
	"lazy-range-puncts":  {{10188, 1659, 1011, 69}, {10270, 1659, 1038, 71}, {8592, 1517, 975, 61}},
	"relocation":         {{9338, 2934, 1071, 62}, {8602, 3222, 663, 66}, {7048, 2497, 1045, 44}},
	"compact-sets":       {{10188, 2309, 411, 69}, {10261, 2207, 408, 71}, {8590, 1942, 714, 61}},
	"window":             {{5679, 3387, 174, 73}, {4845, 3231, 147, 76}, {3963, 2681, 151, 68}},
}

// referenceResults is the brute-force join of the schedule: shj, or —
// shj has no window — every equal-key pair whose arrivals lie within the
// window of each other.
func referenceResults(t *testing.T, arrs []gen.Arrival, window stream.Time) map[string]int {
	t.Helper()
	if window == 0 {
		sink := &op.Collector{}
		ref, err := shj.New(gen.SchemaA, gen.SchemaB, gen.KeyAttr, gen.KeyAttr, sink)
		if err != nil {
			t.Fatal(err)
		}
		items := make([]feedItem, len(arrs))
		for i, a := range arrs {
			items[i] = feedItem{a.Port, a.Item}
		}
		run(t, ref, items)
		return multiset(sink.Tuples())
	}
	want := map[string]int{}
	for _, a := range arrs {
		if a.Port != 0 || a.Item.Kind != stream.KindTuple {
			continue
		}
		for _, b := range arrs {
			if b.Port != 1 || b.Item.Kind != stream.KindTuple {
				continue
			}
			ta, tb := a.Item.Tuple, b.Item.Tuple
			if d := ta.Ts - tb.Ts; d > window || -d > window || !ta.Values[gen.KeyAttr].Equal(tb.Values[gen.KeyAttr]) {
				continue
			}
			want[resultKey(&stream.Tuple{Values: append(append([]value.Value{}, ta.Values...), tb.Values...)})]++
		}
	}
	return want
}

func TestIndexedScanEquivalence(t *testing.T) {
	for _, ec := range equivCases() {
		ec := ec
		t.Run(ec.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				gcfg := gen.Config{
					Seed:     seed,
					Duration: 1500 * stream.Millisecond,
					A:        gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 15},
					B:        gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 25, Batched: ec.batched},
				}
				arrs, err := gen.Synthetic(gcfg)
				if err != nil {
					t.Fatal(err)
				}
				sink := &op.Collector{}
				cfg := Config{
					SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
					AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
				}
				ec.mutate(&cfg)
				j, err := New(cfg, sink)
				if err != nil {
					t.Fatal(err)
				}
				driveEquiv(t, j, arrs)

				diffMultisets(t, multiset(sink.Tuples()), referenceResults(t, arrs, cfg.Window))
				m := j.Metrics()
				// The index may only reduce work examined.
				if m.Examined > m.ProbeWalk {
					t.Errorf("seed %d: Examined %d > ProbeWalk %d", seed, m.Examined, m.ProbeWalk)
				}
				if m.PurgeScanned > m.PurgeWalk {
					t.Errorf("seed %d: PurgeScanned %d > PurgeWalk %d", seed, m.PurgeScanned, m.PurgeWalk)
				}
				if m.IndexScanned > m.IndexWalk {
					t.Errorf("seed %d: IndexScanned %d > IndexWalk %d", seed, m.IndexScanned, m.IndexWalk)
				}
				got := [4]int64{m.ProbeWalk, m.PurgeWalk, m.IndexWalk, int64(len(sink.Puncts()))}
				if want := scanPins[ec.name][seed-1]; got != want {
					t.Errorf("seed %d: walk counters and propagated punctuations {probe, purge, index, puncts} = %v, the scan regime read %v",
						seed, got, want)
				}
				if t.Failed() {
					return
				}
			}
		})
	}
}
