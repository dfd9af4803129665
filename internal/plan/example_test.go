package plan_test

import (
	"context"
	"fmt"
	"log"

	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/plan"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// The paper's Fig. 1 query as a declarative plan: join the Open and Bid
// streams on item_id, then sum bid_increase per item. Punctuations
// flow through the whole plan, so each item's total is final the moment
// its auction closes.
func Example() {
	mkOpen := func(ts stream.Time, id int64, seller string) stream.Item {
		return stream.TupleItem(stream.MustTuple(gen.OpenSchema, ts,
			value.Int(id), value.Str(seller), value.Float(10)))
	}
	mkBid := func(ts stream.Time, id int64, inc float64) stream.Item {
		return stream.TupleItem(stream.MustTuple(gen.BidSchema, ts,
			value.Int(id), value.Str("bidder"), value.Float(inc)))
	}
	closeItem := func(ts stream.Time, width int, id int64) stream.Item {
		return stream.PunctItem(punct.MustKeyOnly(width, 0, punct.Const(value.Int(id))), ts)
	}

	open := []stream.Item{
		mkOpen(1, 7, "ada"),
		closeItem(2, 3, 7), // item_id is a key of Open
	}
	bid := []stream.Item{
		mkBid(3, 7, 5),
		mkBid(4, 7, 2.5),
		closeItem(5, 3, 7), // auction 7 expired
	}

	p := plan.New()
	p.Source("open", gen.OpenSchema, open, false)
	p.Source("bid", gen.BidSchema, bid, false)
	p.PJoin("j", "open", "bid", plan.JoinOptions{})
	p.GroupBy("totals", "j", "item_id", "bid_increase", op.AggSum)
	p.Sink("out", "totals")

	res, err := p.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range res.Sinks["out"].Tuples() {
		fmt.Printf("item %d total %.1f\n", t.Values[0].IntVal(), t.Values[1].FloatVal())
	}
	// Output:
	// item 7 total 7.5
}
