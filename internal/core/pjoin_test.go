package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/shj"
	"pjoin/internal/stream"
	"pjoin/internal/value"
	"pjoin/internal/vtime"
)

var (
	schemaA = stream.MustSchema("A",
		stream.Field{Name: "k", Kind: value.KindInt},
		stream.Field{Name: "pa", Kind: value.KindString},
	)
	schemaB = stream.MustSchema("B",
		stream.Field{Name: "k", Kind: value.KindInt},
		stream.Field{Name: "pb", Kind: value.KindString},
	)
)

func defaultConfig() Config {
	return Config{SchemaA: schemaA, SchemaB: schemaB, AttrA: 0, AttrB: 0}
}

// feedItem is one input event for a test run.
type feedItem struct {
	port int
	item stream.Item
}

func tupA(key int64, payload string, ts stream.Time) feedItem {
	return feedItem{0, stream.TupleItem(stream.MustTuple(schemaA, ts, value.Int(key), value.Str(payload)))}
}

func tupB(key int64, payload string, ts stream.Time) feedItem {
	return feedItem{1, stream.TupleItem(stream.MustTuple(schemaB, ts, value.Int(key), value.Str(payload)))}
}

func punctFor(port int, key int64, ts stream.Time) feedItem {
	return feedItem{port, stream.PunctItem(punct.MustKeyOnly(2, 0, punct.Const(value.Int(key))), ts)}
}

// run feeds the items, sends EOS on both ports and calls Finish.
func run(t *testing.T, j op.Operator, items []feedItem) {
	t.Helper()
	var last stream.Time
	for _, fi := range items {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatalf("Process(%d, %v): %v", fi.port, fi.item, err)
		}
		last = fi.item.Ts
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

// resultKey renders a join result's values (ignoring timestamps) so
// multisets can be compared.
func resultKey(tp *stream.Tuple) string {
	parts := make([]string, len(tp.Values))
	for i, v := range tp.Values {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

func multiset(tuples []*stream.Tuple) map[string]int {
	m := map[string]int{}
	for _, tp := range tuples {
		m[resultKey(tp)]++
	}
	return m
}

func diffMultisets(t *testing.T, got, want map[string]int) {
	t.Helper()
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
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("result %q: got %d, want %d", k, got[k], want[k])
		}
	}
}

func TestNewValidation(t *testing.T) {
	sink := &op.Collector{}
	cases := []struct {
		name string
		cfg  Config
		out  op.Emitter
	}{
		{"nil schemas", Config{}, sink},
		{"nil emitter", defaultConfig(), nil},
		{"attrA range", Config{SchemaA: schemaA, SchemaB: schemaB, AttrA: 5}, sink},
		{"attrB range", Config{SchemaA: schemaA, SchemaB: schemaB, AttrB: -1}, sink},
		{"kind mismatch", Config{SchemaA: schemaA, SchemaB: schemaB, AttrA: 0, AttrB: 1}, sink},
	}
	for _, jn := range joins {
		t.Run(jn.name, func(t *testing.T) {
			for _, c := range cases {
				if _, err := jn.build(c.cfg, c.out); err == nil {
					t.Errorf("%s: expected error", c.name)
				}
			}
		})
	}
}

func TestBasicEquiJoin(t *testing.T) {
	sink := &op.Collector{}
	j, err := New(defaultConfig(), sink)
	if err != nil {
		t.Fatal(err)
	}
	run(t, j, []feedItem{
		tupA(1, "a1", 1),
		tupB(1, "b1", 2), // joins with a1
		tupB(2, "b2", 3),
		tupA(2, "a2", 4), // joins with b2
		tupA(1, "a3", 5), // joins with b1
		tupB(3, "b3", 6), // no partner
	})
	got := multiset(sink.Tuples())
	want := map[string]int{
		`1|"a1"|1|"b1"`: 1,
		`2|"a2"|2|"b2"`: 1,
		`1|"a3"|1|"b1"`: 1,
	}
	diffMultisets(t, got, want)
	// Output schema: A fields then B fields with collision prefix.
	if j.OutSchema().Width() != 4 {
		t.Errorf("out schema = %v", j.OutSchema())
	}
	// EOS forwarded exactly once, at the end.
	if n := len(sink.Items); sink.Items[n-1].Kind != stream.KindEOS {
		t.Error("EOS should be the last item")
	}
}

func TestManyToManyJoin(t *testing.T) {
	sink := &op.Collector{}
	j, _ := New(defaultConfig(), sink)
	var items []feedItem
	ts := stream.Time(0)
	for i := 0; i < 3; i++ {
		ts++
		items = append(items, tupA(7, fmt.Sprintf("a%d", i), ts))
	}
	for i := 0; i < 4; i++ {
		ts++
		items = append(items, tupB(7, fmt.Sprintf("b%d", i), ts))
	}
	run(t, j, items)
	if got := len(sink.Tuples()); got != 12 {
		t.Errorf("3x4 join produced %d results", got)
	}
}

func TestPurgeShrinksState(t *testing.T) {
	sink := &op.Collector{}
	j, _ := New(defaultConfig(), sink) // eager purge by default
	var items []feedItem
	ts := stream.Time(0)
	for k := int64(0); k < 10; k++ {
		ts++
		items = append(items, tupA(k, "a", ts))
		ts++
		items = append(items, tupB(k, "b", ts))
	}
	for _, fi := range items {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.StateTuples(); got != 20 {
		t.Fatalf("state before punctuation = %d", got)
	}
	// A punctuation from A for key 3 purges B's key-3 tuple.
	ts++
	if err := j.Process(0, punctFor(0, 3, ts).item, ts); err != nil {
		t.Fatal(err)
	}
	if got := j.StateTuples(); got != 19 {
		t.Errorf("state after A punctuation = %d, want 19", got)
	}
	// The corresponding B punctuation purges A's key-3 tuple.
	ts++
	if err := j.Process(1, punctFor(1, 3, ts).item, ts); err != nil {
		t.Fatal(err)
	}
	if got := j.StateTuples(); got != 18 {
		t.Errorf("state after both punctuations = %d, want 18", got)
	}
	if m := j.Metrics(); m.Purged != 2 {
		t.Errorf("Purged = %d", m.Purged)
	}
	// Join results are unaffected: each pair joined once.
	if got := len(sink.Tuples()); got != 10 {
		t.Errorf("results = %d", got)
	}
}

func TestRangePunctuationPurges(t *testing.T) {
	sink := &op.Collector{}
	j, _ := New(defaultConfig(), sink)
	var items []feedItem
	for k := int64(0); k < 10; k++ {
		items = append(items, tupB(k, "b", stream.Time(k+1)))
	}
	for _, fi := range items {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	// A range punctuation from A covering keys [0,4] purges five B tuples.
	p := stream.PunctItem(punct.MustKeyOnly(2, 0, punct.MustRange(value.Int(0), value.Int(4))), 100)
	if err := j.Process(0, p, 100); err != nil {
		t.Fatal(err)
	}
	if got := j.StateTuples(); got != 5 {
		t.Errorf("state = %d, want 5", got)
	}
}

func TestDropOnTheFly(t *testing.T) {
	sink := &op.Collector{}
	j, _ := New(defaultConfig(), sink)
	// A tuples for key 5, then A closes key 5.
	seq := []feedItem{
		tupA(5, "a1", 1),
		tupA(5, "a2", 2),
		punctFor(0, 5, 3),
		// This B tuple joins with both As but must not enter the state.
		tupB(5, "b1", 4),
	}
	for _, fi := range seq {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sink.Tuples()); got != 2 {
		t.Errorf("results = %d, want 2", got)
	}
	_, b := j.StateStats()
	if b.TotalTuples() != 0 {
		t.Errorf("B state = %d tuples, want 0 (dropped on the fly)", b.TotalTuples())
	}
	if m := j.Metrics(); m.DroppedOnFly != 1 {
		t.Errorf("DroppedOnFly = %d", m.DroppedOnFly)
	}
}

func TestLazyPurgeThreshold(t *testing.T) {
	cfg := defaultConfig()
	cfg.Thresholds.Purge = 3 // lazy purge: every 3 punctuations
	sink := &op.Collector{}
	j, _ := New(cfg, sink)
	for k := int64(0); k < 5; k++ {
		fi := tupB(k, "b", stream.Time(k+1))
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	// Two punctuations: below threshold, nothing purged yet.
	for i, k := range []int64{0, 1} {
		fi := punctFor(0, k, stream.Time(10+i))
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.StateTuples(); got != 5 {
		t.Fatalf("state = %d before threshold, want 5", got)
	}
	// Third punctuation reaches the threshold: all three keys purge.
	fi := punctFor(0, 2, 20)
	if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
		t.Fatal(err)
	}
	if got := j.StateTuples(); got != 2 {
		t.Errorf("state = %d after threshold, want 2", got)
	}
}

// TestNewRejectsNegativePurge: the purge always runs, so a purge
// threshold below zero (one that never fires) is a configuration error.
func TestNewRejectsNegativePurge(t *testing.T) {
	cfg := defaultConfig()
	cfg.Thresholds.Purge = -1
	if _, err := New(cfg, &op.Collector{}); err == nil {
		t.Fatal("New accepted Thresholds.Purge = -1")
	}
}

func TestVerifyPunctuationsDetectsViolation(t *testing.T) {
	cfg := defaultConfig()
	cfg.VerifyPunctuations = true
	sink := &op.Collector{}
	j, _ := New(cfg, sink)
	if err := j.Process(0, punctFor(0, 7, 1).item, 1); err != nil {
		t.Fatal(err)
	}
	// A tuple with key 7 on stream A violates the punctuation.
	err := j.Process(0, tupA(7, "bad", 2).item, 2)
	if err == nil || !strings.Contains(err.Error(), "violates") {
		t.Errorf("violation not detected: %v", err)
	}
}

func TestPunctuationWidthMismatch(t *testing.T) {
	sink := &op.Collector{}
	j, _ := New(defaultConfig(), sink)
	p := stream.PunctItem(punct.MustNew(punct.Const(value.Int(1))), 1) // width 1, schema width 2
	if err := j.Process(0, p, 1); err == nil {
		t.Error("width mismatch should error")
	}
}

func TestEmptyPunctuationIgnored(t *testing.T) {
	sink := &op.Collector{}
	j, _ := New(defaultConfig(), sink)
	p := stream.PunctItem(punct.MustNew(punct.None(), punct.Star()), 1)
	if err := j.Process(0, p, 1); err != nil {
		t.Fatal(err)
	}
	if a, _ := j.PunctSetSizes(); a != 0 {
		t.Errorf("empty punctuation entered the set")
	}
}

func TestEOSProtocol(t *testing.T) {
	for _, jn := range joins {
		t.Run(jn.name, func(t *testing.T) {
			j, err := jn.build(defaultConfig(), &op.Collector{})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Finish(1); err == nil {
				t.Error("Finish before EOS should error")
			}
			if err := j.Process(0, stream.EOSItem(1), 1); err != nil {
				t.Fatal(err)
			}
			if err := j.Process(0, stream.EOSItem(2), 2); err == nil {
				t.Error("duplicate EOS should error")
			}
			if err := j.Process(1, stream.EOSItem(3), 3); err != nil {
				t.Fatal(err)
			}
			if err := j.Finish(4); err != nil {
				t.Fatal(err)
			}
			if err := j.Finish(5); err == nil {
				t.Error("double Finish should error")
			}
			if err := j.Process(0, tupA(1, "x", 6).item, 6); err == nil {
				t.Error("Process after Finish should error")
			}
			if err := j.Process(9, tupA(1, "x", 7).item, 7); err == nil {
				t.Error("bad port should error")
			}
		})
	}
}

func TestRegistryTableMatchesConfig(t *testing.T) {
	cfg := defaultConfig()
	cfg.Thresholds.PropagateCount = 2
	sink := &op.Collector{}
	j, _ := New(cfg, sink)
	table := j.Table1()
	for _, want := range []string{"state-purge", "state-relocation", "disk-join", "index-build", "punctuation-propagation"} {
		if !strings.Contains(table, want) {
			t.Errorf("registry table missing %s:\n%s", want, table)
		}
	}
	// Lazy index building: index-build runs before propagation on the
	// count event.
	if i, j := strings.Index(table, "index-build"), strings.Index(table, "punctuation-propagation"); i > j {
		t.Error("index-build should precede propagation")
	}
	// Eager index building drops the coupled index-build listener.
	cfg.EagerIndex = true
	j2, _ := New(cfg, sink)
	for _, line := range strings.Split(j2.Table1(), "\n") {
		if strings.Contains(line, "PropagateCountReachEvent") && strings.Contains(line, "index-build") {
			t.Errorf("eager config still couples index build to propagation: %s", line)
		}
	}
}

// --- propagation ---

func propagationConfig() Config {
	cfg := defaultConfig()
	cfg.Thresholds.PropagateCount = 2
	return cfg
}

func TestPropagationAfterPairOfPunctuations(t *testing.T) {
	for _, eager := range []bool{false, true} {
		name := "lazy-index"
		if eager {
			name = "eager-index"
		}
		t.Run(name, func(t *testing.T) {
			cfg := propagationConfig()
			cfg.EagerIndex = eager
			sink := &op.Collector{}
			j, _ := New(cfg, sink)
			seq := []feedItem{
				tupA(1, "a", 1),
				tupB(1, "b", 2),
				punctFor(0, 1, 3), // purges B's key-1 tuple
				punctFor(1, 1, 4), // purges A's key-1 tuple; count threshold reached
			}
			for _, fi := range seq {
				if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
					t.Fatal(err)
				}
			}
			ps := sink.Puncts()
			if len(ps) != 2 {
				t.Fatalf("propagated %d punctuations, want 2 (one per side)", len(ps))
			}
			// Each output punctuation constrains its own side's join
			// column over the output schema and leaves the rest wildcard.
			sawA, sawB := false, false
			for _, pi := range ps {
				if pi.Punct.Width() != 4 {
					t.Fatalf("output punctuation width = %d", pi.Punct.Width())
				}
				if pi.Punct.PatternAt(0).Kind() == punct.Constant {
					sawA = true
				}
				if pi.Punct.PatternAt(2).Kind() == punct.Constant {
					sawB = true
				}
			}
			if !sawA || !sawB {
				t.Errorf("expected one punctuation per side: A=%v B=%v", sawA, sawB)
			}
			// Released, both stay in force: one entry per side.
			a, b := j.PunctSetSizes()
			if a != 1 || b != 1 {
				t.Errorf("punctuation sets hold %d, %d entries, want 1, 1", a, b)
			}
		})
	}
}

func TestNoPropagationWhileTuplesMatch(t *testing.T) {
	cfg := propagationConfig()
	sink := &op.Collector{}
	j, _ := New(cfg, sink)
	seq := []feedItem{
		tupA(1, "a", 1), // stays in state: B never closes key 1
		punctFor(0, 2, 2),
		punctFor(0, 3, 3), // count threshold reached; key-1 tuple still present
	}
	for _, fi := range seq {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	// Punctuations for keys 2 and 3 have no matching tuples: propagable.
	// No punctuation mentioning key 1 exists, so nothing blocks them.
	if got := len(sink.Puncts()); got != 2 {
		t.Fatalf("propagated %d, want 2", got)
	}
	// Now close key 1 from A while the tuple is still in A's state: the
	// punctuation must NOT propagate (Theorem 1) until B purges it.
	sink.Reset()
	for _, fi := range []feedItem{punctFor(0, 1, 4), punctFor(0, 4, 5)} {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	for _, pi := range sink.Puncts() {
		if pi.Punct.PatternAt(0).Kind() == punct.Constant &&
			pi.Punct.PatternAt(0).ConstVal().Equal(value.Int(1)) {
			t.Error("punctuation for key 1 propagated while its tuple is in state")
		}
	}
	// B closes key 1: A's tuple purges, and the blocked punctuation can go.
	sink.Reset()
	for _, fi := range []feedItem{punctFor(1, 1, 6), punctFor(1, 9, 7)} {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	found := false
	for _, pi := range sink.Puncts() {
		if pi.Punct.PatternAt(0).Kind() == punct.Constant &&
			pi.Punct.PatternAt(0).ConstVal().Equal(value.Int(1)) {
			found = true
		}
	}
	if !found {
		t.Error("punctuation for key 1 never propagated after purge")
	}
}

func TestPullModePropagation(t *testing.T) {
	cfg := defaultConfig() // no push thresholds
	sink := &op.Collector{}
	j, _ := New(cfg, sink)
	seq := []feedItem{
		punctFor(0, 1, 1),
		punctFor(0, 2, 2),
	}
	for _, fi := range seq {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(sink.Puncts()); got != 0 {
		t.Fatalf("push-mode propagation fired without thresholds: %d", got)
	}
	if err := j.RequestPropagation(3); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Puncts()); got != 2 {
		t.Errorf("pull propagation produced %d punctuations, want 2", got)
	}
}

func TestTimeModePropagation(t *testing.T) {
	cfg := defaultConfig()
	cfg.Thresholds.PropagateTime = 10 * stream.Millisecond
	sink := &op.Collector{}
	j, _ := New(cfg, sink)
	if err := j.Process(0, punctFor(0, 1, stream.Millisecond).item, stream.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Data activity advances time past the interval.
	fi := tupA(9, "x", 20*stream.Millisecond)
	if err := j.Process(0, fi.item, fi.item.Ts); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Puncts()); got != 1 {
		t.Errorf("time-mode propagation produced %d, want 1", got)
	}
}

func TestPropagationAtFinish(t *testing.T) {
	cfg := propagationConfig()
	sink := &op.Collector{}
	j, _ := New(cfg, sink)
	// One punctuation: below the count threshold, but Finish must flush it.
	run(t, j, []feedItem{punctFor(0, 1, 1)})
	if got := len(sink.Puncts()); got != 1 {
		t.Errorf("Finish flushed %d punctuations, want 1", got)
	}
}

func TestPropagationDisabled(t *testing.T) {
	cfg := propagationConfig()
	cfg.DisablePropagation = true
	sink := &op.Collector{}
	j, _ := New(cfg, sink)
	run(t, j, []feedItem{punctFor(0, 1, 1), punctFor(1, 1, 2), punctFor(0, 2, 3), punctFor(1, 2, 4)})
	if got := len(sink.Puncts()); got != 0 {
		t.Errorf("propagation disabled but %d punctuations emitted", got)
	}
}

// --- relocation / disk join ---

func spillConfig() Config {
	cfg := defaultConfig()
	cfg.NumBuckets = 4
	cfg.Thresholds.MemoryBytes = 200 // tiny: forces frequent relocation
	return cfg
}

func TestRelocationAndFinishCompleteness(t *testing.T) {
	cfg := spillConfig()
	sink := &op.Collector{}
	j, err := New(cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	oracleSink := &op.Collector{}
	oracle, _ := shj.New(schemaA, schemaB, 0, 0, oracleSink)

	var items []feedItem
	ts := stream.Time(0)
	rng := vtime.NewRNG(1)
	for i := 0; i < 200; i++ {
		ts++
		key := int64(rng.Intn(10))
		if rng.Intn(2) == 0 {
			items = append(items, tupA(key, fmt.Sprintf("a%d", i), ts))
		} else {
			items = append(items, tupB(key, fmt.Sprintf("b%d", i), ts))
		}
	}
	run(t, j, items)
	run(t, oracle, items)

	if j.Metrics().Relocations == 0 {
		t.Fatal("test did not exercise relocation; lower the threshold")
	}
	if j.Metrics().DiskJoins == 0 {
		t.Fatal("no disk joins happened; completeness untested")
	}
	diffMultisets(t, multiset(sink.Tuples()), multiset(oracleSink.Tuples()))
}

func TestOnIdleRunsReactiveDiskJoin(t *testing.T) {
	cfg := spillConfig()
	cfg.Thresholds.DiskJoinIdle = 5
	sink := &op.Collector{}
	j, _ := New(cfg, sink)
	var ts stream.Time
	for i := 0; i < 50; i++ {
		ts++
		fi := tupA(int64(i%5), "a", ts)
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	if !j.base.States[0].AnyDisk() {
		t.Fatal("no spill happened")
	}
	did, err := j.OnIdle(ts + 100)
	if err != nil {
		t.Fatal(err)
	}
	if !did {
		t.Error("OnIdle should have run a disk pass after the activation threshold")
	}
	// Without new activity, a second idle call does nothing.
	did, err = j.OnIdle(ts + 200)
	if err != nil {
		t.Fatal(err)
	}
	if did {
		t.Error("second OnIdle in the same stall should be a no-op")
	}
}

func TestPurgeBufferViaDiskPath(t *testing.T) {
	// Force B's bucket to disk, then purge A tuples that still owe
	// left-over joins against B's disk portion: they must park in the
	// purge buffer and the results must still be complete.
	cfg := defaultConfig()
	cfg.NumBuckets = 1
	sink := &op.Collector{}
	j, _ := New(cfg, sink)

	seq := []feedItem{tupB(1, "b1", 1), tupB(2, "b2", 2)}
	for _, fi := range seq {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	// Manually spill B's bucket (as the relocation component would).
	if _, err := j.base.States[1].SpillBucket(0, 3); err != nil {
		t.Fatal(err)
	}
	// A tuple with key 1 arrives: probes B memory (empty now), misses b1.
	fi := tupA(1, "a1", 4)
	if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
		t.Fatal(err)
	}
	// B closes key 1: A's tuple matches PS_B but B has disk data in the
	// bucket, so it must go to the purge buffer, not vanish.
	if err := j.Process(1, punctFor(1, 1, 5).item, 5); err != nil {
		t.Fatal(err)
	}
	a, _ := j.StateStats()
	if a.PurgeTuples != 1 {
		t.Fatalf("purge buffer = %d tuples, want 1", a.PurgeTuples)
	}
	if len(sink.Tuples()) != 0 {
		t.Fatalf("no results expected before the disk pass")
	}
	// Disk pass completes the left-over join and clears the buffer.
	if err := j.disk.Activate(6); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Tuples()); got != 1 {
		t.Errorf("disk pass produced %d results, want 1 (a1 x b1)", got)
	}
	a, _ = j.StateStats()
	if a.PurgeTuples != 0 {
		t.Errorf("purge buffer not cleared: %d", a.PurgeTuples)
	}
	// b1 itself must have been purged from disk (matches A's... no wait,
	// no A punctuation exists; b1 stays on disk).
	_, b := j.StateStats()
	if b.DiskTuples != 2 {
		t.Errorf("B disk tuples = %d, want 2", b.DiskTuples)
	}
}

func TestDiskPurgeRemovesMatchedDiskTuples(t *testing.T) {
	cfg := defaultConfig()
	cfg.NumBuckets = 1
	sink := &op.Collector{}
	j, _ := New(cfg, sink)
	for _, fi := range []feedItem{tupB(1, "b1", 1), tupB(2, "b2", 2)} {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := j.base.States[1].SpillBucket(0, 3); err != nil {
		t.Fatal(err)
	}
	// A closes key 1: b1 (on disk) is now useless, but only a disk pass
	// can drop it.
	if err := j.Process(0, punctFor(0, 1, 4).item, 4); err != nil {
		t.Fatal(err)
	}
	_, b := j.StateStats()
	if b.DiskTuples != 2 {
		t.Fatalf("disk purge should be lazy; disk = %d", b.DiskTuples)
	}
	if err := j.disk.Activate(5); err != nil {
		t.Fatal(err)
	}
	_, b = j.StateStats()
	if b.DiskTuples != 1 {
		t.Errorf("disk tuples after pass = %d, want 1 (b1 purged)", b.DiskTuples)
	}
}

// --- randomized differential test against the oracle ---

// genPunctuatedStreams builds a random interleaving of honest punctuated
// streams: for each stream, a punctuation for key k appears only after
// the stream's last tuple with key k.
func genPunctuatedStreams(rng *vtime.RNG, nTuples, nKeys int, punctEvery int) []feedItem {
	type perStream struct {
		items []feedItem
	}
	var streams [2]perStream
	for s := 0; s < 2; s++ {
		counts := make([]int, nKeys)
		var tuples []int64
		for i := 0; i < nTuples; i++ {
			k := rng.Intn(nKeys)
			counts[k]++
			tuples = append(tuples, int64(k))
		}
		seen := make([]int, nKeys)
		for i, k := range tuples {
			var fi feedItem
			if s == 0 {
				fi = tupA(k, fmt.Sprintf("a%d", i), 0)
			} else {
				fi = tupB(k, fmt.Sprintf("b%d", i), 0)
			}
			streams[s].items = append(streams[s].items, fi)
			seen[k]++
			// Once a key is exhausted, maybe punctuate it right away.
			if seen[k] == counts[k] && punctEvery > 0 && rng.Intn(punctEvery) == 0 {
				streams[s].items = append(streams[s].items, punctFor(s, k, 0))
			}
		}
		// Close every key at the end.
		for k := 0; k < nKeys; k++ {
			streams[s].items = append(streams[s].items, punctFor(s, int64(k), 0))
		}
	}
	// Interleave with strictly increasing timestamps.
	var out []feedItem
	idx := [2]int{}
	ts := stream.Time(0)
	for idx[0] < len(streams[0].items) || idx[1] < len(streams[1].items) {
		s := rng.Intn(2)
		if idx[s] >= len(streams[s].items) {
			s = 1 - s
		}
		fi := streams[s].items[idx[s]]
		idx[s]++
		ts++
		// Restamp with the global arrival time.
		switch fi.item.Kind {
		case stream.KindTuple:
			tt := *fi.item.Tuple
			tt.Ts = ts
			fi.item = stream.TupleItem(&tt)
		case stream.KindPunct:
			fi.item = stream.PunctItem(fi.item.Punct, ts)
		}
		out = append(out, fi)
	}
	return out
}

func TestDifferentialAgainstOracle(t *testing.T) {
	configs := map[string]func() Config{
		"eager-purge": func() Config { return defaultConfig() },
		"lazy-purge-10": func() Config {
			cfg := defaultConfig()
			cfg.Thresholds.Purge = 10
			return cfg
		},
		"with-propagation": func() Config {
			cfg := propagationConfig()
			cfg.VerifyPunctuations = true
			return cfg
		},
		"eager-index": func() Config {
			cfg := propagationConfig()
			cfg.EagerIndex = true
			return cfg
		},
		"tiny-memory": func() Config {
			cfg := spillConfig()
			cfg.Thresholds.MemoryBytes = 300
			return cfg
		},
		"tiny-memory-lazy": func() Config {
			cfg := spillConfig()
			cfg.Thresholds.Purge = 7
			cfg.Thresholds.PropagateCount = 5
			return cfg
		},
	}
	for name, mk := range configs {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				rng := vtime.NewRNG(seed)
				items := genPunctuatedStreams(rng, 150, 12, 2)

				oracleSink := &op.Collector{}
				oracle, err := shj.New(schemaA, schemaB, 0, 0, oracleSink)
				if err != nil {
					t.Fatal(err)
				}
				run(t, oracle, items)

				sink := &op.Collector{}
				j, err := New(mk(), sink)
				if err != nil {
					t.Fatal(err)
				}
				run(t, j, items)

				got, want := multiset(sink.Tuples()), multiset(oracleSink.Tuples())
				if len(got) == 0 && len(want) != 0 {
					t.Fatalf("seed %d: no results at all", seed)
				}
				diffMultisets(t, got, want)
				if t.Failed() {
					t.Fatalf("seed %d: result mismatch", seed)
				}
				// With full punctuation coverage and a final purge, the
				// state should be (nearly) empty at the end for purge
				// configs. At minimum it must not exceed the input size.
				if j.StateTuples() > 300 {
					t.Errorf("seed %d: state = %d tuples at end", seed, j.StateTuples())
				}
			}
		})
	}
}

// The state at end-of-run must be completely empty when every key is
// closed on both sides (eager purge, no spilling).
func TestStateFullyDrainedAfterFullPunctuation(t *testing.T) {
	sink := &op.Collector{}
	j, _ := New(defaultConfig(), sink)
	rng := vtime.NewRNG(99)
	items := genPunctuatedStreams(rng, 100, 8, 3)
	run(t, j, items)
	if got := j.StateTuples(); got != 0 {
		t.Errorf("state = %d tuples after closing every key on both sides", got)
	}
}

// TestCompactSetsBoundsPunctuationSets: a punctuation that owes nothing
// retires into its neighbours, so after 300 keys close on both sides a
// few ranges are left, whether entries retire once released (push
// propagation) or once applied (no propagation). defaultConfig alone has
// no push threshold: its entries are still owed a release and stay.
func TestCompactSetsBoundsPunctuationSets(t *testing.T) {
	run := func(mutate func(*Config)) (setLen int, results int) {
		cfg := defaultConfig()
		mutate(&cfg)
		sink := &op.Collector{}
		j, err := New(cfg, sink)
		if err != nil {
			t.Fatal(err)
		}
		// A long run of per-key punctuations over consecutive keys.
		var ts stream.Time
		for k := int64(0); k < 300; k++ {
			ts++
			fi := tupA(k, "a", ts)
			if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
				t.Fatal(err)
			}
			ts++
			fi = tupB(k, "b", ts)
			if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
				t.Fatal(err)
			}
			ts++
			if err := j.Process(0, punctFor(0, k, ts).item, ts); err != nil {
				t.Fatal(err)
			}
			ts++
			if err := j.Process(1, punctFor(1, k, ts).item, ts); err != nil {
				t.Fatal(err)
			}
		}
		a, b := j.PunctSetSizes()
		return a + b, len(sink.Tuples())
	}
	for name, mutate := range map[string]func(*Config){
		"push propagation": func(c *Config) { c.Thresholds.PropagateCount = 1 },
		"no propagation":   func(c *Config) { c.DisablePropagation = true },
	} {
		n, results := run(mutate)
		if results != 300 {
			t.Errorf("%s: %d results, want 300", name, results)
		}
		if n > 4 {
			t.Errorf("%s: %d punctuations left, want at most 4", name, n)
		}
	}
}

// TestLateTupleAfterReleaseDropped: A closes key 5 while holding no A
// tuple, so the punctuation is propagated at once. It stays in force: the
// B tuple on key 5 that arrives after the release is dropped on the fly,
// not stored for good.
func TestLateTupleAfterReleaseDropped(t *testing.T) {
	cfg := defaultConfig()
	cfg.Thresholds.PropagateCount = 1
	sink := &op.Collector{}
	j, err := New(cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	run(t, j, []feedItem{punctFor(0, 5, 1), tupB(5, "late", 2)})
	if n := len(sink.Puncts()); n != 1 || sink.Puncts()[0].Ts != 1 {
		t.Fatalf("propagated %v, want A's punctuation at its arrival", sink.Puncts())
	}
	if m := j.Metrics(); m.DroppedOnFly != 1 || j.StateTuples() != 0 {
		t.Errorf("dropped on the fly %d, state %d; want 1 and 0", m.DroppedOnFly, j.StateTuples())
	}
}

// TestRetiredZeroLeavesNegativeZeroOpen: B's punctuation on the float key
// 0 retires into B's closed intervals. Value.Equal tells -0 from 0, so an
// A tuple with key -0 is not dropped against it, and a later B tuple with
// key -0 (B never closed -0) joins it.
func TestRetiredZeroLeavesNegativeZeroOpen(t *testing.T) {
	fa := stream.MustSchema("FA", stream.Field{Name: "k", Kind: value.KindFloat}, stream.Field{Name: "pa", Kind: value.KindString})
	fb := stream.MustSchema("FB", stream.Field{Name: "k", Kind: value.KindFloat}, stream.Field{Name: "pb", Kind: value.KindString})
	cfg := Config{SchemaA: fa, SchemaB: fb, AttrA: 0, AttrB: 0}
	cfg.Thresholds.PropagateCount = 1
	sink := &op.Collector{}
	j, err := New(cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	zero, negZero := value.Float(0), value.Float(math.Copysign(0, -1))
	for _, fi := range []feedItem{
		{0, stream.TupleItem(stream.MustTuple(fa, 1, zero, value.Str("a0")))},
		{1, stream.PunctItem(punct.MustKeyOnly(2, 0, punct.Const(zero)), 2)},
		{0, stream.PunctItem(punct.MustKeyOnly(2, 0, punct.Const(zero)), 3)},
	} {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	if n, c := j.psets[1].Len(), j.psets[1].ClosedLen(); n != 0 || c != 1 {
		t.Fatalf("B's set holds %d entries and %d closed intervals, want its punctuation on 0 retired", n, c)
	}
	run(t, j, []feedItem{
		{0, stream.TupleItem(stream.MustTuple(fa, 4, negZero, value.Str("a-0")))},
		{1, stream.TupleItem(stream.MustTuple(fb, 5, negZero, value.Str("b-0")))},
	})
	if m := j.Metrics(); m.DroppedOnFly != 0 || len(sink.Tuples()) != 1 {
		t.Errorf("dropped on the fly %d, results %v; want 0 and the -0 pair", m.DroppedOnFly, sink.Tuples())
	}
}

// A larger-scale differential run: thousands of tuples with frequent
// relocation, lazy purge, propagation and punctuation retirement all
// active at once. Catches interactions that small inputs miss (bucket
// skew, repeated disk passes, purge buffers refilling).
func TestDifferentialAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	for seed := uint64(11); seed <= 12; seed++ {
		rng := vtime.NewRNG(seed)
		items := genPunctuatedStreams(rng, 3000, 40, 3)

		oracleSink := &op.Collector{}
		oracle, err := shj.New(schemaA, schemaB, 0, 0, oracleSink)
		if err != nil {
			t.Fatal(err)
		}
		run(t, oracle, items)

		cfg := defaultConfig()
		cfg.NumBuckets = 8
		cfg.Thresholds.Purge = 13
		cfg.Thresholds.MemoryBytes = 2 << 10
		cfg.Thresholds.PropagateCount = 9
		cfg.VerifyPunctuations = true
		sink := &op.Collector{}
		j, err := New(cfg, sink)
		if err != nil {
			t.Fatal(err)
		}
		run(t, j, items)

		if j.Metrics().Relocations == 0 || j.Metrics().DiskJoins == 0 {
			t.Fatalf("seed %d: scale test failed to exercise the disk path", seed)
		}
		diffMultisets(t, multiset(sink.Tuples()), multiset(oracleSink.Tuples()))
		if t.Failed() {
			t.Fatalf("seed %d: mismatch at scale", seed)
		}
	}
}
