// Auction: the paper's running example (§1.1, Fig. 1) as a live
// pipeline. The sellers portal merges items for sale into the Open
// stream; the buyers portal merges bids into the Bid stream. PJoin joins
// them on item_id; a punctuation-aware group-by sums bid_increase per
// item — and thanks to the punctuations inserted when each auction
// expires, every item's total is emitted as soon as its auction closes,
// not at end-of-stream.
//
// Run with: go run ./examples/auction
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
	// Generate a deterministic auction workload: 40 items, bids every
	// ~3ms while each auction runs, punctuations at auction close.
	arrs, err := gen.Auction(gen.AuctionConfig{
		Seed:            2026,
		Items:           40,
		OpenMean:        2 * stream.Millisecond,
		AuctionLength:   40 * stream.Millisecond,
		BidMean:         3 * stream.Millisecond,
		UniqueOpenPunct: true,
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
	st := gen.Summarize(arrs)
	fmt.Printf("workload: %d Open tuples, %d bids, %d+%d punctuations\n",
		st.Tuples[gen.AuctionPortOpen], st.Tuples[gen.AuctionPortBid],
		st.Puncts[gen.AuctionPortOpen], st.Puncts[gen.AuctionPortBid])

	// Assemble the Fig. 1(c) plan: join -> group-by -> sink.
	p := exec.NewPipeline()
	srcOpen, srcBid, joined, grouped := p.Edge(), p.Edge(), p.Edge(), p.Edge()

	cfg := core.Config{
		SchemaA: gen.OpenSchema, SchemaB: gen.BidSchema,
		AttrA: 0, AttrB: 0,
		OutName: "Out1",
	}
	cfg.Thresholds.Purge = 1          // eager purge
	cfg.Thresholds.PropagateCount = 1 // propagate as soon as possible
	join, err := core.New(cfg, joined)
	if err != nil {
		log.Fatal(err)
	}

	sumAttr := join.OutSchema().MustIndexOf("bid_increase")
	groupBy, err := op.NewGroupBy(join.OutSchema(), 0, sumAttr, op.AggSum, grouped)
	if err != nil {
		log.Fatal(err)
	}

	p.SourceItems(srcOpen, open, false)
	p.SourceItems(srcBid, bids, false)
	if err := p.Spawn(join, srcOpen, srcBid); err != nil {
		log.Fatal(err)
	}
	if err := p.Spawn(groupBy, joined); err != nil {
		log.Fatal(err)
	}
	sink := p.Sink(grouped)

	if err := p.Run(context.Background()); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nper-item bid totals (in emission order):")
	for _, t := range sink.Tuples() {
		fmt.Printf("  item %2d: %6.1f\n", t.Values[0].IntVal(), t.Values[1].FloatVal())
	}
	m := join.Metrics()
	fmt.Printf("\njoin: results=%d purged=%d dropped-on-fly=%d puncts-out=%d\n",
		m.TuplesOut, m.Purged, m.DroppedOnFly, m.PunctsOut)
	fmt.Printf("group-by: %d of %d groups emitted early (before end-of-stream)\n",
		groupBy.EarlyEmitted(), groupBy.EarlyEmitted()+int64(groupBy.Groups()))
	fmt.Printf("join state at end: %d tuples (fully purged by punctuations)\n", join.StateTuples())
	if m.TuplesOut != 594 || groupBy.EarlyEmitted() != 40 || groupBy.Groups() != 0 || m.PunctsOut != 80 || join.StateTuples() != 0 {
		log.Fatalf("want 594 results, 40 of 40 groups early, 80 punctuations out and state 0; got %d, %d of %d, %d and %d",
			m.TuplesOut, groupBy.EarlyEmitted(), groupBy.EarlyEmitted()+int64(groupBy.Groups()), m.PunctsOut, join.StateTuples())
	}
}
