package gen

import (
	"fmt"

	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
	"pjoin/internal/vtime"
)

// Auction schemas, after the paper's running example (§1.1/§2.1): the
// sellers portal merges items for sale into the Open stream; the buyers
// portal merges bids into the Bid stream.
var (
	OpenSchema = stream.MustSchema("Open",
		stream.Field{Name: "item_id", Kind: value.KindInt},
		stream.Field{Name: "seller", Kind: value.KindString},
		stream.Field{Name: "open_price", Kind: value.KindFloat},
	)
	BidSchema = stream.MustSchema("Bid",
		stream.Field{Name: "item_id", Kind: value.KindInt},
		stream.Field{Name: "bidder", Kind: value.KindString},
		stream.Field{Name: "bid_increase", Kind: value.KindFloat},
	)
)

// AuctionConfig configures the online-auction workload.
type AuctionConfig struct {
	Seed uint64
	// Items is the number of auctions to run.
	Items int
	// OpenMean is the mean inter-arrival time between new items.
	OpenMean stream.Time
	// AuctionLength is how long each item accepts bids. When it
	// expires, the auction system inserts a punctuation into the Bid
	// stream for that item (§1.1).
	AuctionLength stream.Time
	// BidMean is the mean inter-arrival of bids per open item.
	BidMean stream.Time
	// UniqueOpenPunct, when set, inserts a punctuation after each Open
	// tuple: item_id is a key of Open, so the query system can derive
	// "no more Open tuples with this item_id" (§1.1).
	UniqueOpenPunct bool
}

// Auction ports: Open tuples arrive on port 0, Bid tuples on port 1.
const (
	AuctionPortOpen = 0
	AuctionPortBid  = 1
)

// Auction generates the online-auction workload: items open, receive
// Poisson bids while their auction runs, and are punctuated on the Bid
// stream when the auction expires.
func Auction(cfg AuctionConfig) ([]Arrival, error) {
	if cfg.Items <= 0 {
		return nil, fmt.Errorf("gen: auction: Items must be positive")
	}
	if cfg.OpenMean <= 0 || cfg.AuctionLength <= 0 || cfg.BidMean <= 0 {
		return nil, fmt.Errorf("gen: auction: OpenMean, AuctionLength and BidMean must be positive")
	}
	rng := vtime.NewRNG(cfg.Seed)
	q := vtime.NewEventQueue()

	type openEv struct{ item int64 }
	type bidEv struct {
		item  int64
		close stream.Time
	}
	type closeEv struct{ item int64 }

	at := stream.Time(0)
	for i := 0; i < cfg.Items; i++ {
		at += rng.ExpDuration(cfg.OpenMean)
		q.Push(at, openEv{item: int64(i)})
	}

	sellers := []string{"ada", "bob", "cho", "dee", "eli", "fay"}
	bidders := []string{"gus", "hal", "ivy", "jon", "kim", "lou", "mia", "ned"}

	// An open, its punctuation, a close and the Poisson bids of its run.
	perItem := 3 + float64(cfg.AuctionLength)/float64(cfg.BidMean)
	var (
		out    = make([]Arrival, 0, sized(float64(cfg.Items)*perItem))
		stamp  = new(clock).stamp
		bidSeq int
	)

	for q.Len() > 0 {
		ev := q.Pop()
		switch e := ev.Payload.(type) {
		case openEv:
			ts := stamp(ev.At)
			tp := stream.MustTuple(OpenSchema, ts,
				value.Int(e.item),
				value.Str(sellers[rng.Intn(len(sellers))]),
				value.Float(float64(5+rng.Intn(95))),
			)
			out = append(out, Arrival{Port: AuctionPortOpen, Item: stream.TupleItem(tp)})
			if cfg.UniqueOpenPunct {
				p := punct.MustKeyOnly(OpenSchema.Width(), 0, punct.Const(value.Int(e.item)))
				out = append(out, Arrival{Port: AuctionPortOpen, Item: stream.PunctItem(p, stamp(ts))})
			}
			closeAt := ev.At + cfg.AuctionLength
			q.Push(ev.At+rng.ExpDuration(cfg.BidMean), bidEv{item: e.item, close: closeAt})
			q.Push(closeAt, closeEv{item: e.item})
		case bidEv:
			if ev.At >= e.close {
				break // auction ended; bid suppressed
			}
			ts := stamp(ev.At)
			tp := stream.MustTuple(BidSchema, ts,
				value.Int(e.item),
				value.Str(bidders[rng.Intn(len(bidders))]),
				value.Float(float64(1+rng.Intn(20))),
			)
			bidSeq++
			out = append(out, Arrival{Port: AuctionPortBid, Item: stream.TupleItem(tp)})
			q.Push(ev.At+rng.ExpDuration(cfg.BidMean), bidEv{item: e.item, close: e.close})
		case closeEv:
			p := punct.MustKeyOnly(BidSchema.Width(), 0, punct.Const(value.Int(e.item)))
			out = append(out, Arrival{Port: AuctionPortBid, Item: stream.PunctItem(p, stamp(ev.At))})
		}
	}
	return out, nil
}
