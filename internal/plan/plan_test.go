package plan

import (
	"context"
	"fmt"
	"testing"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/punct"
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
	p.GroupBy("totals", "j", "item_id", "bid_increase", op.AggSum)
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

// TestPlanPropagateCount: PropagateCount 0 builds the default push
// propagation after every punctuation, and a negative value turns push
// propagation off. Five punctuations arrive on the left input; push
// propagation releases them in groups of the threshold, each group
// stamped with the arrival that reached it, and Finish releases the rest
// at the end of the streams.
func TestPlanPropagateCount(t *testing.T) {
	var left []stream.Item
	for k := int64(1); k <= 5; k++ {
		p := punct.MustKeyOnly(gen.SchemaA.Width(), gen.KeyAttr, punct.Const(value.Int(k)))
		left = append(left, stream.PunctItem(p, stream.Time(10*k)))
	}
	for _, c := range []struct{ opt, stamps int }{{0, 5}, {-1, 1}, {4, 2}} {
		p := New()
		p.Source("a", gen.SchemaA, left, false)
		p.Source("b", gen.SchemaB, nil, false)
		p.PJoin("j", "a", "b", JoinOptions{PropagateCount: c.opt})
		p.Sink("out", "j")
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		stamps := map[stream.Time]bool{}
		for _, it := range res.Sinks["out"].Items {
			if it.Kind == stream.KindPunct {
				stamps[it.Ts] = true
			}
		}
		if len(stamps) != c.stamps {
			t.Errorf("PropagateCount %d released the punctuations at %d distinct times, want %d: %v",
				c.opt, len(stamps), c.stamps, stamps)
		}
	}
}
