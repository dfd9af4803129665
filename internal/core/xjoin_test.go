package core

import (
	"fmt"
	"strings"
	"testing"

	"pjoin/internal/gen"
	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/op"
	"pjoin/internal/oracle/spancheck"
	"pjoin/internal/punct"
	"pjoin/internal/shj"
	"pjoin/internal/stream"
	"pjoin/internal/value"
	"pjoin/internal/vtime"
)

// joins are the two constructors of the one operator, for the tests that
// hold PJoin and the XJoin baseline to the same contract.
var joins = []struct {
	name  string
	build func(Config, op.Emitter) (*PJoin, error)
}{{"pjoin", New}, {"xjoin", NewXJoin}}

// xjoinConfig spills above 256 bytes of memory-resident state, so both
// emit paths run: memory probes and disk passes.
func xjoinConfig(buckets int) Config {
	cfg := defaultConfig()
	cfg.NumBuckets = buckets
	cfg.Thresholds.MemoryBytes = 256
	return cfg
}

func TestNewXJoinRejects(t *testing.T) {
	sink := &op.Collector{}
	if _, err := NewXJoin(defaultConfig(), sink); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"window": func(c *Config) { c.Window = 10 },
		"verify": func(c *Config) { c.VerifyPunctuations = true },
		"eager":  func(c *Config) { c.EagerIndex = true },
	} {
		cfg := defaultConfig()
		mutate(&cfg)
		if _, err := NewXJoin(cfg, sink); err == nil {
			t.Errorf("%s: NewXJoin accepted a punctuation-component setting", name)
		}
	}
}

func TestXJoinOperatorMetadata(t *testing.T) {
	lv := obs.NewLive(stream.Millisecond)
	cfg := defaultConfig()
	cfg.Instr = obs.NewInstr(nil, lv, "xjoin")
	cfg.Thresholds.PropagateCount = 2
	j, err := NewXJoin(cfg, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	// The state gauges, none of the punctuation ones.
	lv.Flush(1)
	last, _ := lv.LastValues()
	if _, ok := last["xjoin.tuples_in"]; !ok {
		t.Errorf("no xjoin.tuples_in gauge: %v", last)
	}
	for _, g := range []string{"punct_lag_ms", "punct_set.a", "punct_set.b", "puncts_out"} {
		if _, ok := last["xjoin."+g]; ok {
			t.Errorf("XJoin registered the punctuation gauge %s", g)
		}
	}
	if j.Name() != "xjoin" || j.NumPorts() != 2 {
		t.Error("metadata wrong")
	}
	if j.OutSchema().Width() != 4 {
		t.Errorf("out schema = %v", j.OutSchema())
	}
	// The baseline's components: relocation and the disk join, nothing
	// a punctuation fires.
	reg := j.Table1()
	for _, k := range []event{purgeThresholdReach, propagateCountReach, propagateRequest} {
		if strings.Contains(reg, k.String()) {
			t.Errorf("registry has a %s row, want no punctuation listeners:\n%s", k, reg)
		}
	}
	if row := "StreamEmptyEvent [both inputs ended] -> disk-join\n"; !strings.Contains(reg, row) ||
		strings.Count(reg, "StreamEmptyEvent") != 1 {
		t.Errorf("registry's StreamEmpty rows are not the one %q:\n%s", row, reg)
	}
}

func TestXJoinBasicJoinInMemory(t *testing.T) {
	sink := &op.Collector{}
	j, err := NewXJoin(defaultConfig(), sink)
	if err != nil {
		t.Fatal(err)
	}
	run(t, j, []feedItem{
		tupA(1, "a1", 1),
		tupB(1, "b1", 2),
		tupA(1, "a2", 3),
		tupB(2, "b2", 4),
	})
	want := map[string]int{
		`1|"a1"|1|"b1"`: 1,
		`1|"a2"|1|"b1"`: 1,
	}
	diffMultisets(t, multiset(sink.Tuples()), want)
}

func TestXJoinPunctuationsIgnored(t *testing.T) {
	sink := &op.Collector{}
	j, _ := NewXJoin(defaultConfig(), sink)
	p := stream.PunctItem(punct.MustKeyOnly(2, 0, punct.Const(value.Int(1))), 1)
	if err := j.Process(0, p, 1); err != nil {
		t.Fatal(err)
	}
	fi := tupA(1, "a", 2)
	if err := j.Process(fi.port, fi.item, 2); err != nil {
		t.Fatal(err)
	}
	// State keeps growing: no constraint exploitation.
	if got := j.StateTuples(); got != 1 {
		t.Errorf("state = %d", got)
	}
	if m := j.Metrics(); m.PunctsIn[0] != 1 {
		t.Errorf("PunctsIn = %v", m.PunctsIn)
	}
	if a, b := j.PunctSetSizes(); a+b != 0 {
		t.Errorf("punctuation sets hold %d, %d", a, b)
	}
	if got := len(sink.Puncts()); got != 0 {
		t.Error("XJoin must not propagate punctuations")
	}
}

func TestXJoinStateGrowsWithoutBound(t *testing.T) {
	j, _ := NewXJoin(defaultConfig(), &op.Collector{})
	for i := 0; i < 100; i++ {
		fi := tupA(int64(i), "a", stream.Time(i+1))
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.StateTuples(); got != 100 {
		t.Errorf("state = %d, want 100", got)
	}
}

func TestXJoinSpillAndCleanupCompleteness(t *testing.T) {
	sink := &op.Collector{}
	cfg := defaultConfig()
	cfg.NumBuckets = 4
	cfg.Thresholds.MemoryBytes = 250
	j, err := NewXJoin(cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	oracleSink := &op.Collector{}
	oracle, _ := shj.New(schemaA, schemaB, 0, 0, oracleSink)

	rng := vtime.NewRNG(7)
	var items []feedItem
	for i := 0; i < 300; i++ {
		key := int64(rng.Intn(8))
		ts := stream.Time(i + 1)
		if rng.Intn(2) == 0 {
			items = append(items, tupA(key, fmt.Sprintf("a%d", i), ts))
		} else {
			items = append(items, tupB(key, fmt.Sprintf("b%d", i), ts))
		}
	}
	run(t, j, items)
	run(t, oracle, items)

	if j.Metrics().Relocations == 0 {
		t.Fatal("relocation never triggered; test ineffective")
	}
	diffMultisets(t, multiset(sink.Tuples()), multiset(oracleSink.Tuples()))
}

func TestXJoinReactiveDiskJoinDuringStall(t *testing.T) {
	sink := &op.Collector{}
	cfg := defaultConfig()
	cfg.NumBuckets = 2
	cfg.Thresholds.MemoryBytes = 200
	cfg.Thresholds.DiskJoinIdle = 10
	j, _ := NewXJoin(cfg, sink)
	var ts stream.Time
	for i := 0; i < 40; i++ {
		ts++
		var fi feedItem
		if i%2 == 0 {
			fi = tupA(int64(i%3), "a", ts)
		} else {
			fi = tupB(int64(i%3), "b", ts)
		}
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	if j.Metrics().Relocations == 0 {
		t.Fatal("no relocation; lower the threshold")
	}
	before := len(sink.Tuples())
	did, err := j.OnIdle(ts + 50)
	if err != nil {
		t.Fatal(err)
	}
	if !did {
		t.Fatal("idle stall should trigger the reactive disk join")
	}
	if got := len(sink.Tuples()); got <= before {
		t.Error("reactive disk join produced no left-over results")
	}
	// Results so far plus cleanup must equal the oracle.
	var last stream.Time = ts + 100
	for port := 0; port < 2; port++ {
		last++
		if err := j.Process(port, stream.EOSItem(last), last); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Finish(last + 1); err != nil {
		t.Fatal(err)
	}
}

func TestXJoinDifferentialWithIdlePassesAgainstOracle(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := vtime.NewRNG(seed)
		sink := &op.Collector{}
		cfg := defaultConfig()
		cfg.NumBuckets = 4
		cfg.Thresholds.MemoryBytes = 300
		cfg.Thresholds.DiskJoinIdle = 5
		j, _ := NewXJoin(cfg, sink)
		oracleSink := &op.Collector{}
		oracle, _ := shj.New(schemaA, schemaB, 0, 0, oracleSink)

		var ts stream.Time
		for i := 0; i < 250; i++ {
			ts++
			key := int64(rng.Intn(10))
			var fi feedItem
			if rng.Intn(2) == 0 {
				fi = tupA(key, fmt.Sprintf("a%d", i), ts)
			} else {
				fi = tupB(key, fmt.Sprintf("b%d", i), ts)
			}
			if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
				t.Fatal(err)
			}
			if err := oracle.Process(fi.port, fi.item, fi.item.Ts); err != nil {
				t.Fatal(err)
			}
			// Random stalls let the reactive stage interleave with
			// arrivals — the hardest case for duplicate avoidance.
			if rng.Intn(20) == 0 {
				ts += 10
				if _, err := j.OnIdle(ts); err != nil {
					t.Fatal(err)
				}
			}
		}
		for port := 0; port < 2; port++ {
			ts++
			j.Process(port, stream.EOSItem(ts), ts)
			oracle.Process(port, stream.EOSItem(ts), ts)
		}
		if err := j.Finish(ts + 1); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Finish(ts + 1); err != nil {
			t.Fatal(err)
		}
		diffMultisets(t, multiset(sink.Tuples()), multiset(oracleSink.Tuples()))
		if t.Failed() {
			t.Fatalf("seed %d mismatch", seed)
		}
	}
}

// TestXJoinObsEventsReconcileWithMetrics: the baseline reconciles under
// the same table, over the same fixed stream, as PJoin (spancheck) —
// minus anything punctuation-related: XJoin has no purge or propagation,
// and records every punctuation it ignores as a punct_discard.
func TestXJoinObsEventsReconcileWithMetrics(t *testing.T) {
	rec := &span.Recorder{}
	cfg := xjoinConfig(0)
	cfg.SchemaA, cfg.SchemaB = gen.SchemaA, gen.SchemaB
	cfg.Instr = obs.NewInstr(rec, nil, "xjoin")
	j, err := NewXJoin(cfg, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	arrs := spancheck.Stream()
	var items []feedItem
	for _, a := range arrs {
		items = append(items, feedItem{a.Port, a.Item})
	}
	run(t, j, items)

	m := j.Metrics()
	if m.Relocations == 0 || m.DiskPasses == 0 || m.DiskJoins == 0 {
		t.Fatalf("workload missed the spill path: %+v", m)
	}
	for _, d := range spancheck.Check(rec.Spans(), m, spancheck.Opts{Admitted: true}) {
		t.Error(d)
	}
	sum := gen.Summarize(arrs)
	if got, want := rec.Count(span.KindPunctDiscard), int64(sum.Puncts[0]+sum.Puncts[1]); got != want || want == 0 {
		t.Errorf("punct_discard spans: got %d, want one per punctuation (%d)", got, want)
	}
	for _, k := range []span.Kind{span.KindPurgeRun, span.KindPunctArrive, span.KindPunctEmit, span.KindPunctPurgeMem} {
		if got := rec.Count(k); got != 0 {
			t.Errorf("%v spans: got %d, XJoin has no such path", k, got)
		}
	}
}

// TestXJoinProbeWalkIsBucketOccupancy holds XJoin's one table-walk
// counter to its definition: every memory probe adds the occupancy of the
// opposite bucket it resolved in — what a chained bucket walked end to
// end would examine — read off the state just before the call, while
// spills keep emptying buckets under it.
func TestXJoinProbeWalkIsBucketOccupancy(t *testing.T) {
	x, err := NewXJoin(xjoinConfig(8), &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	var items []feedItem
	ts := stream.Time(1)
	for k := int64(0); k < 120; k++ {
		items = append(items, tupA(k%13, "a", ts), tupB((k*5)%13, "b", ts+1))
		ts += 2
	}
	for i, fi := range items {
		opp := x.StatesForTest()[1-fi.port]
		want := int64(opp.Bucket(opp.BucketOf(fi.item.Tuple.Values[0])).MemLen())
		before := x.Metrics()
		if err := x.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
		m := x.Metrics()
		if got := m.ProbeWalk - before.ProbeWalk; got != want {
			t.Fatalf("item %d: ProbeWalk grew by %d, the probed bucket held %d", i, got, want)
		}
		if m.Examined > m.ProbeWalk {
			t.Fatalf("item %d: Examined %d > ProbeWalk %d", i, m.Examined, m.ProbeWalk)
		}
	}
	if m := x.Metrics(); m.Relocations == 0 || m.ProbeWalk <= m.Examined || m.PurgeWalk != 0 || m.IndexWalk != 0 {
		t.Errorf("want a spilling run whose buckets hold several keys, and no purge or index walk: %+v", m)
	}
}
