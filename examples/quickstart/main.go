// Quickstart: build a PJoin, push a punctuated stream fragment through
// it by hand, and watch punctuations purge the join state and propagate.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pjoin/internal/core"
	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

func main() {
	// Two streams joined on their first attribute.
	open := stream.MustSchema("Open",
		stream.Field{Name: "item_id", Kind: value.KindInt},
		stream.Field{Name: "seller", Kind: value.KindString},
	)
	bid := stream.MustSchema("Bid",
		stream.Field{Name: "item_id", Kind: value.KindInt},
		stream.Field{Name: "amount", Kind: value.KindFloat},
	)

	// Collect everything the join emits.
	sink := &op.Collector{}

	cfg := core.Config{
		SchemaA: open, SchemaB: bid,
		AttrA: 0, AttrB: 0,
		VerifyPunctuations: true,
	}
	cfg.Thresholds.Purge = 1          // eager purge
	cfg.Thresholds.PropagateCount = 2 // push propagation every 2 punctuations
	join, err := core.New(cfg, sink)
	if err != nil {
		log.Fatal(err)
	}

	// Helpers to feed items; timestamps must strictly increase.
	var ts stream.Time
	feed := func(port int, it stream.Item) {
		if err := join.Process(port, it, it.Ts); err != nil {
			log.Fatal(err)
		}
	}
	tuple := func(port int, sc *stream.Schema, vals ...value.Value) {
		ts++
		feed(port, stream.TupleItem(stream.MustTuple(sc, ts, vals...)))
	}
	punctuate := func(port int, width int, itemID int64) {
		ts++
		p := punct.MustKeyOnly(width, 0, punct.Const(value.Int(itemID)))
		feed(port, stream.PunctItem(p, ts))
	}

	fmt.Println("== feeding tuples ==")
	tuple(0, open, value.Int(1), value.Str("ada"))
	tuple(1, bid, value.Int(1), value.Float(10)) // joins immediately
	tuple(1, bid, value.Int(1), value.Float(12)) // joins immediately
	tuple(0, open, value.Int(2), value.Str("bob"))
	fmt.Printf("state after 4 tuples: %d stored tuples\n", join.StateTuples())

	fmt.Println("\n== punctuating item 1 on both streams ==")
	punctuate(1, bid.Width(), 1)  // auction 1 closed: no more bids
	punctuate(0, open.Width(), 1) // Open's item_id is unique: no more item 1
	fmt.Printf("state after punctuations: %d stored tuples (item 1 purged)\n", join.StateTuples())

	// End both streams and flush.
	ts++
	feed(0, stream.EOSItem(ts))
	ts++
	feed(1, stream.EOSItem(ts))
	if err := join.Finish(ts + 1); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== join output ==")
	for _, it := range sink.Items {
		switch it.Kind {
		case stream.KindTuple:
			fmt.Printf("  result  %s\n", it.Tuple)
		case stream.KindPunct:
			fmt.Printf("  punct   %s\n", it.Punct)
		case stream.KindEOS:
			fmt.Println("  eos")
		}
	}

	m := join.Metrics()
	fmt.Printf("\nresults=%d purged=%d punctuations out=%d\n",
		m.TuplesOut, m.Purged, m.PunctsOut)
	fmt.Println("\nevent-listener registry (paper Table 1 style):")
	fmt.Print(join.Table1())
	if m.TuplesOut != 2 || m.PunctsOut != 2 || join.StateTuples() != 1 {
		log.Fatalf("want 2 results, 2 punctuations out and state 1; got %d, %d and %d",
			m.TuplesOut, m.PunctsOut, join.StateTuples())
	}
}
