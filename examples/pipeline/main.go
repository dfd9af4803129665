// Pipeline: the same Fig. 1 query as examples/auction, with a
// KeyPunctuator that DERIVES the Open stream's punctuations from its key
// constraint (paper §1.1: the query system itself can insert a
// punctuation after each tuple of a keyed stream), and a filter and a
// projection between the join and the group-by. It exits non-zero
// unless every Open tuple gets its punctuation, the join ends empty and
// some bidder has a total.
//
// Run with: go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"

	"pjoin/internal/core"
	"pjoin/internal/exec"
	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/stream"
)

func main() {
	// Auction workload WITHOUT source-side Open punctuations: the
	// pipeline derives them instead.
	arrs, err := gen.Auction(gen.AuctionConfig{
		Seed:            42,
		Items:           60,
		OpenMean:        2 * stream.Millisecond,
		AuctionLength:   50 * stream.Millisecond,
		BidMean:         3 * stream.Millisecond,
		UniqueOpenPunct: false,
	})
	if err != nil {
		log.Fatal(err)
	}
	var open, bids []stream.Item
	for _, a := range arrs {
		if a.Port == gen.AuctionPortOpen {
			open = append(open, a.Item)
		} else {
			bids = append(bids, a.Item)
		}
	}

	// Open -> key punctuator -> join <- Bid, then bid_increase >= 5 ->
	// (item_id, bidder, bid_increase) -> sum per bidder.
	p := exec.NewPipeline()
	rawOpen, openIn, bidIn, joined, big, slimmed, totals := p.Edge(), p.Edge(), p.Edge(), p.Edge(), p.Edge(), p.Edge(), p.Edge()
	cfg := core.Config{SchemaA: gen.OpenSchema, SchemaB: gen.BidSchema, OutName: "joined", VerifyPunctuations: true}
	cfg.Thresholds.PropagateCount = 1 // propagate as soon as possible
	join, err := core.New(cfg, joined)
	if err != nil {
		log.Fatal(err)
	}
	keyPunct, err := op.NewKeyPunctuator(gen.OpenSchema, 0, openIn) // <item_id, *, *> after each Open tuple
	if err != nil {
		log.Fatal(err)
	}
	bigBids, err := op.NewSelect(join.OutSchema(), func(t *stream.Tuple) bool { return t.Values[5].FloatVal() >= 5 }, big)
	if err != nil {
		log.Fatal(err)
	}
	slim, err := op.NewProject(join.OutSchema(), []int{0, 4, 5}, slimmed)
	if err != nil {
		log.Fatal(err)
	}
	perBidder, err := op.NewGroupBy(slim.OutSchema(), 1, 2, op.AggSum, totals)
	if err != nil {
		log.Fatal(err)
	}
	p.SourceItems(rawOpen, open, false)
	p.SourceItems(bidIn, bids, false)
	for _, err := range []error{
		p.Spawn(keyPunct, rawOpen), p.Spawn(join, openIn, bidIn),
		p.Spawn(bigBids, joined), p.Spawn(slim, big), p.Spawn(perBidder, slimmed),
	} {
		if err != nil {
			log.Fatal(err)
		}
	}
	sink := p.Sink(totals)
	if err := p.Run(context.Background()); err != nil {
		log.Fatal(err)
	}

	fmt.Println("total bid increase per bidder (bids >= 5):")
	for _, t := range sink.Tuples() {
		fmt.Printf("  %-4s %7.1f\n", t.Values[0].StrVal(), t.Values[1].FloatVal())
	}
	m := join.Metrics()
	fmt.Printf("\nderived punctuations: %d\n", keyPunct.Derived())
	fmt.Printf("join: results=%d purged=%d dropped-on-fly=%d state-at-end=%d\n",
		m.TuplesOut, m.Purged, m.DroppedOnFly, join.StateTuples())
	// The purged / dropped-on-the-fly split depends on the schedule.
	if keyPunct.Derived() != int64(len(open)) || join.StateTuples() != 0 || len(sink.Tuples()) == 0 {
		log.Fatalf("want %d derived punctuations (open holds only tuples), join state 0 and some totals; got %d, %d and %d",
			len(open), keyPunct.Derived(), join.StateTuples(), len(sink.Tuples()))
	}
}
