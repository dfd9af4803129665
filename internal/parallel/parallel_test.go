package parallel

import (
	"fmt"
	"strings"
	"testing"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

func baseConfig() core.Config {
	cfg := core.Config{
		SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
		AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
	}
	cfg.Thresholds.Purge = 1
	cfg.Thresholds.PropagateCount = 1
	cfg.VerifyPunctuations = true
	return cfg
}

// joiner is what drive needs of a join: core.PJoin and ShardedPJoin.
type joiner interface {
	Process(port int, it stream.Item, now stream.Time) error
	Finish(now stream.Time) error
}

// drive feeds a schedule into a join, then EOS on both ports and Finish.
func drive(t *testing.T, j joiner, arrs []gen.Arrival) {
	t.Helper()
	var last stream.Time
	for i, a := range arrs {
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

// multiset summarises collected output for equivalence comparison:
// tuples keyed by their full rendering (values + timestamp, both
// deterministic), punctuations by pattern only (propagation *time*
// legitimately differs between single and sharded execution).
type multiset struct {
	tuples map[string]int
	puncts map[string]int
	eos    int
}

func summarize(items []stream.Item) multiset {
	m := multiset{tuples: map[string]int{}, puncts: map[string]int{}}
	for _, it := range items {
		switch it.Kind {
		case stream.KindTuple:
			m.tuples[it.Tuple.String()]++
		case stream.KindPunct:
			m.puncts[it.Punct.String()]++
		case stream.KindEOS:
			m.eos++
		}
	}
	return m
}

func diffMultisets(a, b map[string]int) string {
	var d []string
	for k, n := range a {
		if b[k] != n {
			d = append(d, fmt.Sprintf("%s: %d vs %d", k, n, b[k]))
		}
	}
	for k, n := range b {
		if _, ok := a[k]; !ok {
			d = append(d, fmt.Sprintf("%s: 0 vs %d", k, n))
		}
	}
	if len(d) > 8 {
		d = append(d[:8], fmt.Sprintf("... and %d more", len(d)-8))
	}
	return strings.Join(d, "; ")
}

func runSingle(t *testing.T, cfg core.Config, arrs []gen.Arrival) multiset {
	t.Helper()
	sink := &op.Collector{}
	j, err := core.New(cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, j, arrs)
	return summarize(sink.Items)
}

func runSharded(t *testing.T, cfg core.Config, shards int, arrs []gen.Arrival) (multiset, *ShardedPJoin) {
	t.Helper()
	sink := &op.Collector{}
	j, err := New(Config{Shards: shards, Join: cfg}, sink)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, j, arrs)
	return summarize(sink.Items), j
}

// TestShardedMatchesSingleProperty is the sharding equivalence
// property: over randomized workloads and configurations, the sharded
// join's output multiset (result tuples AND propagated punctuations)
// equals the single-instance PJoin's, for N in {1, 2, 4}.
func TestShardedMatchesSingleProperty(t *testing.T) {
	type variant struct {
		name   string
		mutate func(*core.Config)
		gen    gen.Config
	}
	variants := []variant{
		{
			name: "eager-symmetric",
			gen: gen.Config{
				MaxTuples: 1500, Duration: 1 << 62, WindowKeys: 12,
				A: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 15},
				B: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 15},
			},
		},
		{
			// Batched punctuations cover key RANGES that span shards: a
			// shard that finishes its slice of a range early releases
			// its copy, which stays in force while other slices are
			// live (see the package doc).
			name: "lazy-purge-batched",
			mutate: func(c *core.Config) {
				c.Thresholds.Purge = 7
				c.Thresholds.PropagateCount = 3
			},
			gen: gen.Config{
				MaxTuples: 1500, Duration: 1 << 62, WindowKeys: 10,
				A: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 10},
				B: gen.SideSpec{TupleMean: 3 * stream.Millisecond, PunctMean: 25, Batched: true},
			},
		},
		{
			name: "spilling",
			mutate: func(c *core.Config) {
				c.Thresholds.MemoryBytes = 4 << 10 // force relocation + disk passes
				c.Thresholds.DiskJoinIdle = 1
			},
			gen: gen.Config{
				MaxTuples: 1200, Duration: 1 << 62, WindowKeys: 16,
				A: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 30},
				B: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 30},
			},
		},
		{
			name: "window",
			mutate: func(c *core.Config) {
				c.Window = 40 * stream.Millisecond
			},
			gen: gen.Config{
				MaxTuples: 1200, Duration: 1 << 62, WindowKeys: 12,
				A: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 20},
				B: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 20},
			},
		},
		{
			name: "no-propagation",
			mutate: func(c *core.Config) {
				c.DisablePropagation = true
			},
			gen: gen.Config{
				MaxTuples: 1200, Duration: 1 << 62, WindowKeys: 12,
				A: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 20},
				B: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 20},
			},
		},
	}

	for _, v := range variants {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", v.name, seed), func(t *testing.T) {
				gc := v.gen
				gc.Seed = seed
				arrs, err := gen.Synthetic(gc)
				if err != nil {
					t.Fatal(err)
				}
				if err := gen.Validate(arrs); err != nil {
					t.Fatal(err)
				}
				cfg := baseConfig()
				if v.mutate != nil {
					v.mutate(&cfg)
				}
				want := runSingle(t, cfg, arrs)
				for _, n := range []int{1, 2, 4} {
					got, _ := runSharded(t, cfg, n, arrs)
					if d := diffMultisets(want.tuples, got.tuples); d != "" {
						t.Errorf("shards=%d: tuple multiset differs: %s", n, d)
					}
					if d := diffMultisets(want.puncts, got.puncts); d != "" {
						t.Errorf("shards=%d: punctuation multiset differs: %s", n, d)
					}
					if got.eos != 1 {
						t.Errorf("shards=%d: want exactly 1 EOS, got %d", n, got.eos)
					}
				}
			})
		}
	}
}

// TestPunctuationAlignment exercises the merge countdown directly: a
// punctuation is forwarded only after the LAST shard propagates it, and
// result tuples are never held behind pending punctuations.
func TestPunctuationAlignment(t *testing.T) {
	cfg := baseConfig()
	sink := &op.Collector{}
	j, err := New(Config{Shards: 4, Join: cfg}, sink)
	if err != nil {
		t.Fatal(err)
	}

	// Tuples for keys 0..7 on both sides; every key joins once.
	var ts stream.Time
	next := func() stream.Time { ts++; return ts }
	for k := int64(0); k < 8; k++ {
		ta := stream.MustTuple(gen.SchemaA, next(), value.Int(k), value.Str("a"))
		if err := j.Process(0, stream.TupleItem(ta), ta.Ts); err != nil {
			t.Fatal(err)
		}
		tb := stream.MustTuple(gen.SchemaB, next(), value.Int(k), value.Str("b"))
		if err := j.Process(1, stream.TupleItem(tb), tb.Ts); err != nil {
			t.Fatal(err)
		}
	}
	// Punctuate key 3 on side A only: side A's state still holds the
	// tuple for key 3 (count > 0 in the owning shard), so nothing may be
	// forwarded; the other shards have already promised.
	pa := punct.MustKeyOnly(gen.SchemaA.Width(), gen.KeyAttr, punct.Const(value.Int(3)))
	if err := j.Process(0, stream.PunctItem(pa, next()), ts); err != nil {
		t.Fatal(err)
	}
	// Punctuating key 3 on side B purges A's key-3 tuple (cross-stream
	// purge), driving the owning shard's count to zero so both
	// punctuations complete their countdown by Finish.
	pb := punct.MustKeyOnly(gen.SchemaB.Width(), gen.KeyAttr, punct.Const(value.Int(3)))
	if err := j.Process(1, stream.PunctItem(pb, next()), ts); err != nil {
		t.Fatal(err)
	}
	for port := 0; port < 2; port++ {
		if err := j.Process(port, stream.EOSItem(next()), ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Finish(next()); err != nil {
		t.Fatal(err)
	}

	m := summarize(sink.Items)
	if len(m.tuples) != 8 {
		t.Errorf("want 8 distinct join results, got %d", len(m.tuples))
	}
	if len(m.puncts) != 2 {
		t.Errorf("want both punctuations forwarded after alignment, got %v", m.puncts)
	}
	if got := len(j.align.pending); got != 0 {
		t.Errorf("want no pending punctuations after Finish, got %d", got)
	}
}

// TestPunctuationHeldWhileShardOwes verifies the alignment invariant
// mid-stream: while the owning shard still holds a matching tuple, the
// punctuation must NOT be forwarded even though the other shards have
// propagated it.
func TestPunctuationHeldWhileShardOwes(t *testing.T) {
	cfg := baseConfig()
	sink := &op.Collector{}
	j, err := New(Config{Shards: 4, Join: cfg}, sink)
	if err != nil {
		t.Fatal(err)
	}
	var ts stream.Time
	next := func() stream.Time { ts++; return ts }

	// One A-side tuple for key 5; no B punctuation ever purges it.
	ta := stream.MustTuple(gen.SchemaA, next(), value.Int(5), value.Str("a"))
	if err := j.Process(0, stream.TupleItem(ta), ta.Ts); err != nil {
		t.Fatal(err)
	}
	pa := punct.MustKeyOnly(gen.SchemaA.Width(), gen.KeyAttr, punct.Const(value.Int(5)))
	if err := j.Process(0, stream.PunctItem(pa, next()), ts); err != nil {
		t.Fatal(err)
	}
	for port := 0; port < 2; port++ {
		if err := j.Process(port, stream.EOSItem(next()), ts); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Finish(next()); err != nil {
		t.Fatal(err)
	}
	m := summarize(sink.Items)
	if len(m.puncts) != 0 {
		t.Errorf("punctuation with a live matching tuple must not be forwarded, got %v", m.puncts)
	}
	if got := len(j.align.pending); got != 1 {
		t.Errorf("want 1 straggler-pending punctuation, got %d", got)
	}
}

// TestAlignCountsPerShard drives align directly. Both inputs' <*, *>
// widen to one output pattern, so a shard emits it twice; the copies of
// one shard must not stand in for another shard's. Shard 0 emits P
// twice, then shard 1 emits a result and P: the result comes out before
// any P, and the first P only once shard 1 has made the promise.
func TestAlignCountsPerShard(t *testing.T) {
	sink := &op.Collector{}
	a := &align{out: sink, n: 2, pending: make(map[string]*pendingPunct)}
	p := punct.MustNew(punct.Star(), punct.Star(), punct.Star(), punct.Star())
	res := stream.MustTuple(gen.SchemaA, 5, value.Int(3), value.Str("a"))
	for i, step := range []struct {
		shard int
		it    stream.Item
	}{
		{0, stream.PunctItem(p, 1)},
		{0, stream.PunctItem(p, 2)},
		{1, stream.TupleItem(res)},
		{1, stream.PunctItem(p, 6)},
	} {
		if err := a.take(step.shard, step.it); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if len(sink.Items) != 2 || sink.Items[0].Kind != stream.KindTuple ||
		sink.Items[1].Kind != stream.KindPunct || sink.Items[1].Ts != 6 {
		t.Fatalf("want the result, then one P at 6; got %v", sink.Items)
	}
	if got := len(a.pending); got != 1 {
		t.Errorf("shard 0's second copy is owed by shard 1: pending = %d, want 1", got)
	}
	if err := a.take(1, stream.PunctItem(p, 7)); err != nil {
		t.Fatal(err)
	}
	if len(sink.Items) != 3 || sink.Items[2].Ts != 7 {
		t.Fatalf("want the second P at 7; got %v", sink.Items)
	}
	if got := len(a.pending); got != 0 {
		t.Errorf("every shard even: pending = %d, want 0", got)
	}
}

// TestRoutingDeterminism: all tuples of one key land in one shard.
func TestRoutingDeterminism(t *testing.T) {
	cfg := baseConfig()
	cfg.DisablePropagation = true
	sink := &op.Collector{}
	j, err := New(Config{Shards: 4, Join: cfg}, sink)
	if err != nil {
		t.Fatal(err)
	}
	var ts stream.Time
	for i := 0; i < 100; i++ {
		ts++
		tp := stream.MustTuple(gen.SchemaA, ts, value.Int(7), value.Str("x"))
		if err := j.Process(0, stream.TupleItem(tp), ts); err != nil {
			t.Fatal(err)
		}
	}
	nonEmpty := 0
	for s, pj := range j.shards {
		if n := pj.StateTuples(); n > 0 {
			nonEmpty++
			if n != 100 {
				t.Errorf("shard %d holds %d of 100 same-key tuples", s, n)
			}
		}
	}
	if nonEmpty != 1 {
		t.Errorf("a single key must map to a single shard, got %d shards", nonEmpty)
	}
}

// TestShardFailurePropagates: an operator error inside a shard surfaces
// from the router call that caused it.
func TestShardFailurePropagates(t *testing.T) {
	cfg := baseConfig()
	// Keep the punctuation in the set (propagation would release and
	// remove it before the violating tuple arrives).
	cfg.DisablePropagation = true
	sink := &op.Collector{}
	j, err := New(Config{Shards: 2, Join: cfg}, sink)
	if err != nil {
		t.Fatal(err)
	}
	// VerifyPunctuations: a tuple matching an earlier own-side
	// punctuation is a stream-integrity error inside the owning shard.
	p := punct.MustKeyOnly(gen.SchemaA.Width(), gen.KeyAttr, punct.Const(value.Int(1)))
	if err := j.Process(0, stream.PunctItem(p, 1), 1); err != nil {
		t.Fatal(err)
	}
	bad := stream.MustTuple(gen.SchemaA, 2, value.Int(1), value.Str("late"))
	err = j.Process(0, stream.TupleItem(bad), 2)
	if err == nil || !strings.Contains(err.Error(), "violates punctuation semantics") {
		t.Fatalf("Process of the violating tuple: err = %v, want the shard's integrity error", err)
	}
}

// TestConfigValidation covers constructor errors.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Shards: 0, Join: baseConfig()}, &op.Collector{}); err == nil {
		t.Error("want error for zero shards")
	}
	if _, err := New(Config{Shards: 2, Join: baseConfig()}, nil); err == nil {
		t.Error("want error for nil emitter")
	}
	cfg := baseConfig()
	cfg.SchemaB = nil
	if _, err := New(Config{Shards: 2, Join: cfg}, &op.Collector{}); err == nil {
		t.Error("want error for invalid join config")
	}
}

// TestDuplicateEOS: the router rejects protocol violations without
// involving the shards.
func TestDuplicateEOS(t *testing.T) {
	cfg := baseConfig()
	j, err := New(Config{Shards: 2, Join: cfg}, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Process(0, stream.EOSItem(1), 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Process(0, stream.EOSItem(2), 2); err == nil {
		t.Error("want duplicate EOS error")
	}
	if err := j.Finish(3); err == nil {
		t.Error("want Finish-before-EOS error")
	}
	if err := j.Process(1, stream.EOSItem(3), 3); err != nil {
		t.Fatal(err)
	}
	if err := j.Finish(4); err != nil {
		t.Fatal(err)
	}
	if err := j.Finish(5); err == nil {
		t.Error("want double Finish error")
	}
}
