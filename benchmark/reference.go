package main

import (
	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/shj"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// reference is what a correct run of the workload must deliver to the
// sink, computed at set-up by the brute-force symmetric hash join over
// the same arrivals. shj ignores punctuations and never purges, so it
// shares no purge, index, propagation or spill code with the join under
// test.
type reference struct {
	// joinResults is the size of the exact equi-join.
	joinResults int64
	// sinkTuples and sinkSum are the count and the order-independent
	// checksum of the data tuples the sink must see: the join results
	// themselves, or on the auction plan one (item_id, sum) row per item
	// that joined at all.
	sinkTuples int64
	sinkSum    uint64
}

func computeReference(w spec, arrs []gen.Arrival) (reference, error) {
	var ref reference
	sums := make(map[int64]float64) // auction plan only: bid_increase per item_id
	a, b := w.schemas()
	var aggAttr int
	if w.Auction != nil {
		aggAttr = a.Width() + b.MustIndexOf("bid_increase")
	}
	emit := op.EmitterFunc(func(it stream.Item) error {
		if it.Kind != stream.KindTuple {
			return nil
		}
		ref.joinResults++
		if w.Auction != nil {
			sums[it.Tuple.Values[0].IntVal()] += it.Tuple.Values[aggAttr].FloatVal()
		} else {
			ref.sinkSum += tupleHash(it.Tuple)
		}
		return nil
	})
	j, err := shj.New(a, b, gen.KeyAttr, gen.KeyAttr, emit)
	if err != nil {
		return ref, err
	}
	var last stream.Time
	for _, ar := range arrs {
		if err := j.Process(ar.Port, ar.Item, ar.Item.Ts); err != nil {
			return ref, err
		}
		last = ar.Item.Ts
	}
	for port := 0; port < 2; port++ {
		last++
		if err := j.Process(port, stream.EOSItem(last), last); err != nil {
			return ref, err
		}
	}
	if err := j.Finish(last + 1); err != nil {
		return ref, err
	}
	if w.Auction == nil {
		ref.sinkTuples = ref.joinResults
		return ref, nil
	}
	// Bid increases are small whole numbers, so the float sums are exact
	// whatever order the group-by adds them in.
	for k, sum := range sums {
		ref.sinkSum += tupleHash(&stream.Tuple{Values: []value.Value{value.Int(k), value.Float(sum)}})
	}
	ref.sinkTuples = int64(len(sums))
	return ref, nil
}
