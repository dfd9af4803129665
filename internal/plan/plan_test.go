package plan

import (
	"context"
	"fmt"
	"testing"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/parallel"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

func auctionItems(t *testing.T) (open, bid []stream.Item) {
	t.Helper()
	arrs, err := gen.Auction(gen.AuctionConfig{
		Seed: 9, Items: 25,
		OpenMean: stream.Time(200_000), AuctionLength: stream.Time(4_000_000),
		BidMean: stream.Time(600_000), UniqueOpenPunct: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrs {
		if a.Port == gen.AuctionPortOpen {
			open = append(open, a.Item)
		} else {
			bid = append(bid, a.Item)
		}
	}
	return open, bid
}

func TestFig1PlanEndToEnd(t *testing.T) {
	open, bid := auctionItems(t)
	p := New()
	p.Source("open", gen.OpenSchema, open, false)
	p.Source("bid", gen.BidSchema, bid, false)
	p.PJoin("j", "open", "bid", JoinOptions{Verify: true})
	p.GroupBySum("totals", "j", "item_id", "bid_increase")
	p.Sink("out", "totals")
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Sinks["out"].Tuples()
	if len(rows) == 0 || len(rows) > 25 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The join operator is inspectable after the run.
	j, ok := res.Operators["j"].(*core.PJoin)
	if !ok {
		t.Fatal("join operator not exposed")
	}
	if j.StateTuples() != 0 {
		t.Errorf("join state = %d", j.StateTuples())
	}
	if len(res.Sinks["out"].Puncts()) == 0 {
		t.Error("no punctuations reached the sink")
	}
}

func TestPlanWithSelectAndProject(t *testing.T) {
	open, bid := auctionItems(t)
	p := New()
	p.Source("open", gen.OpenSchema, open, false)
	p.Source("bid", gen.BidSchema, bid, false)
	p.PJoin("j", "open", "bid", JoinOptions{})
	p.Select("big", "j", func(tp *stream.Tuple) bool {
		return tp.Values[5].FloatVal() >= 10 // bid_increase >= 10
	})
	p.Project("slim", "big", "item_id", "bid_increase")
	p.Sink("out", "slim")
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range res.Sinks["out"].Tuples() {
		if tp.Width() != 2 {
			t.Fatalf("projected width = %d", tp.Width())
		}
		if tp.Values[1].FloatVal() < 10 {
			t.Fatalf("selection leaked %v", tp)
		}
	}
}

func TestPlanKeyPunctuateFeedsJoin(t *testing.T) {
	// Open tuples WITHOUT derived punctuations; the plan derives them
	// with KeyPunctuate, which lets PJoin drop unmatched bids on the fly.
	arrs, err := gen.Auction(gen.AuctionConfig{
		Seed: 3, Items: 20,
		OpenMean: stream.Time(200_000), AuctionLength: stream.Time(3_000_000),
		BidMean: stream.Time(500_000), UniqueOpenPunct: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	var open, bid []stream.Item
	for _, a := range arrs {
		if a.Port == gen.AuctionPortOpen {
			open = append(open, a.Item)
		} else {
			bid = append(bid, a.Item)
		}
	}
	p := New()
	p.Source("open-raw", gen.OpenSchema, open, false)
	p.Source("bid", gen.BidSchema, bid, false)
	p.KeyPunctuate("open", "open-raw", "item_id")
	p.PJoin("j", "open", "bid", JoinOptions{})
	p.Sink("out", "j")
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	kp := res.Operators["open"].(*op.KeyPunctuator)
	if kp.Derived() != 20 {
		t.Errorf("derived = %d", kp.Derived())
	}
	j := res.Operators["j"].(*core.PJoin)
	if j.Metrics().DroppedOnFly == 0 {
		t.Error("derived punctuations never enabled drop-on-the-fly")
	}
}

func TestPlanUnion(t *testing.T) {
	mk := func(n int, base int64) []stream.Item {
		var out []stream.Item
		for i := 0; i < n; i++ {
			out = append(out, stream.TupleItem(stream.MustTuple(gen.SchemaA,
				stream.Time(i+1), value.Int(base+int64(i)), value.Str("x"))))
		}
		return out
	}
	p := New()
	p.Source("a1", gen.SchemaA, mk(5, 0), false)
	p.Source("a2", gen.SchemaA, mk(7, 100), false)
	p.Union("u", "a1", "a2")
	p.Sink("out", "u")
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Sinks["out"].Tuples()); got != 12 {
		t.Errorf("union tuples = %d", got)
	}
}

func TestPlanXJoinNode(t *testing.T) {
	open, bid := auctionItems(t)
	p := New()
	p.Source("open", gen.OpenSchema, open, false)
	p.Source("bid", gen.BidSchema, bid, false)
	p.XJoin("j", "open", "bid", JoinOptions{})
	p.Sink("out", "j")
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sinks["out"].Tuples()) == 0 {
		t.Error("xjoin produced nothing")
	}
}

// xjoinPlan is a two-source plan through one XJoin node.
func xjoinPlan(opts JoinOptions) func(p *Plan) {
	return func(p *Plan) {
		p.Source("a", gen.SchemaA, nil, false)
		p.Source("b", gen.SchemaB, nil, false)
		p.XJoin("j", "a", "b", opts)
		p.Sink("out", "j")
	}
}

func TestPlanValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func(p *Plan)
	}{
		{"empty plan", func(p *Plan) {}},
		{"duplicate name", func(p *Plan) {
			p.Source("s", gen.SchemaA, nil, false)
			p.Source("s", gen.SchemaA, nil, false)
			p.Sink("out", "s")
		}},
		{"unknown input", func(p *Plan) {
			p.Select("f", "nope", func(*stream.Tuple) bool { return true })
		}},
		{"nil source schema", func(p *Plan) {
			p.Source("s", nil, nil, false)
		}},
		{"dangling node", func(p *Plan) {
			p.Source("s", gen.SchemaA, nil, false)
		}},
		{"fan-out", func(p *Plan) {
			p.Source("s", gen.SchemaA, nil, false)
			p.Sink("out1", "s")
			p.Sink("out2", "s")
		}},
		{"read from sink", func(p *Plan) {
			p.Source("s", gen.SchemaA, nil, false)
			p.Sink("out", "s")
			p.Select("f", "out", func(*stream.Tuple) bool { return true })
		}},
		{"empty name", func(p *Plan) {
			p.Source("", gen.SchemaA, nil, false)
		}},
		{"bad field", func(p *Plan) {
			p.Source("s", gen.SchemaA, nil, false)
			p.Project("pr", "s", "no_such_field")
			p.Sink("out", "pr")
		}},
		{"union width mismatch", func(p *Plan) {
			p.Source("s1", gen.SchemaA, nil, false)
			p.Source("s2", gen.OpenSchema, nil, false)
			p.Union("u", "s1", "s2")
			p.Sink("out", "u")
		}},
		// An XJoin node refuses the PJoin-only options instead of
		// dropping them.
		{"xjoin shards", xjoinPlan(JoinOptions{Shards: 4})},
		{"xjoin window", xjoinPlan(JoinOptions{Window: 10})},
		{"xjoin verify", xjoinPlan(JoinOptions{Verify: true})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := New()
			c.build(p)
			if _, err := p.Run(context.Background()); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestPlanGroupByCount(t *testing.T) {
	var items []stream.Item
	for i := 0; i < 9; i++ {
		items = append(items, stream.TupleItem(stream.MustTuple(gen.SchemaA,
			stream.Time(i+1), value.Int(int64(i%3)), value.Str(fmt.Sprintf("x%d", i)))))
	}
	p := New()
	p.Source("s", gen.SchemaA, items, false)
	p.GroupBy("g", "s", "k", "", op.AggCount)
	p.Sink("out", "g")
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Sinks["out"].Tuples()
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		if r.Values[1].IntVal() != 3 {
			t.Errorf("count = %v", r)
		}
	}
}

// TestPlanShardedPJoin runs the fig.1 auction plan with the join
// hash-partitioned across 4 shards and checks the aggregate results
// match the single-instance plan value-for-value.
func TestPlanShardedPJoin(t *testing.T) {
	open, bid := auctionItems(t)
	run := func(shards int) map[string]int {
		p := New()
		p.Source("open", gen.OpenSchema, open, false)
		p.Source("bid", gen.BidSchema, bid, false)
		p.PJoin("j", "open", "bid", JoinOptions{Verify: true, Shards: shards})
		p.GroupBySum("totals", "j", "item_id", "bid_increase")
		p.Sink("out", "totals")
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if shards > 1 {
			j, ok := res.Operators["j"].(*parallel.ShardedPJoin)
			if !ok {
				t.Fatal("sharded join operator not exposed")
			}
			if j.Shards() != shards {
				t.Errorf("shards = %d, want %d", j.Shards(), shards)
			}
			if j.StateTuples() != 0 {
				t.Errorf("residual sharded state = %d", j.StateTuples())
			}
		}
		rows := map[string]int{}
		for _, r := range res.Sinks["out"].Tuples() {
			rows[fmt.Sprintf("%v|%v", r.Values[0], r.Values[1])]++
		}
		return rows
	}
	single := run(1)
	sharded := run(4)
	if len(single) == 0 {
		t.Fatal("no aggregate rows")
	}
	for k, n := range single {
		if sharded[k] != n {
			t.Errorf("row %q: single %d, sharded %d", k, n, sharded[k])
		}
	}
	if len(sharded) != len(single) {
		t.Errorf("row count: single %d, sharded %d", len(single), len(sharded))
	}
}

// TestPlanPropagateCount: PropagateCount 0 builds the default push
// propagation after every punctuation, and a negative value turns push
// propagation off.
func TestPlanPropagateCount(t *testing.T) {
	for _, c := range []struct{ opt, want int }{{0, 1}, {-1, 0}, {4, 4}} {
		p := New()
		p.Source("a", gen.SchemaA, nil, false)
		p.Source("b", gen.SchemaB, nil, false)
		p.PJoin("j", "a", "b", JoinOptions{PropagateCount: c.opt})
		p.Sink("out", "j")
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := res.Operators["j"].(*core.PJoin).Monitor().CurrentThresholds().PropagateCount
		if got != c.want {
			t.Errorf("PropagateCount %d built %d, want %d", c.opt, got, c.want)
		}
	}
}
