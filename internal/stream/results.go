package stream

import (
	"unsafe"

	"pjoin/internal/slab"
	"pjoin/internal/value"
)

// Result chunk lengths: how many tuple headers, and how many attribute
// values, one refill of a ResultSlab allocates. They are constants, not
// sized to a probe burst or a batch: a hot key with 10,000 matches fills
// 323 chunks, it does not create one 10,000-result slab that a single
// retained result would keep alive. The price of chunking is that bound: a
// retained result pins at most its own header chunk and its own value
// chunk — the amplification the join state's slab (store.storedChunk)
// already imposes on every StoredTuple.
//
// Both lengths are chosen to fill a malloc size class. Go (≥ 1.22) puts
// an 8-byte header in front of a pointerful object larger than 512 B, so
// 31 headers are 31 × 40 + 8 = 1,248 B in the 1,280 class and 124 values
// 124 × 16 + 8 = 1,992 B in the 2,048 class: 3,328 B per 31 results of
// width 4, 107 B each, for 104 B of payload. (248 values, 3,976 B in the
// 4,096 class, cost the same per result and halve the value chunks a
// holder's slab allocates, but a retained result then pins 4 KiB of
// values, and the two chunks no longer run out together.) At other
// widths the two chunks simply run out at different results.
const (
	resultHdrs = 31
	resultVals = 124
)

// The element sizes chunk byte counts are derived from: a Tuple header
// is 40 bytes, a Value 16 (TestItemSizeUnchangedByBorrowed pins both).
const (
	tupleBytes = int(unsafe.Sizeof(Tuple{}))
	valueBytes = int(unsafe.Sizeof(value.Value{}))
)

// ResultSlab is where tuples that are built rather than received live:
// join results (Join), a group-by's rows (NewTuple) and the copies that
// let a borrowed tuple outlive its batch (Keep). Headers and values are carved from chunks of
// resultHdrs and resultVals elements (internal/slab). It is one type with
// two kinds of owner:
//
//   - The zero value belongs to whoever holds it — a join emitting to a
//     plain op.Emitter, a collector, a hash table — and is never rewound:
//     a chunk is carved once and then forgotten, so a tuple lives for as
//     long as something refers to it.
//   - A Batch, and shj or a group-by for one call's results or rows,
//     owns a recycled one: it keeps its chunks, growing by one whenever
//     its owner holds more results than it ever did (never sized to the
//     batch capacity up front: a punctuation-cut batch of eight results
//     stays one chunk), and Rewind zeroes it when the batch is recycled
//     or the call returns.
//     Its tuples are valid until then, and their items say so (Borrowed).
//
// Not safe for concurrent use; must not be copied after first use.
type ResultSlab struct {
	hdrs     slab.Slab[Tuple]
	vals     slab.Slab[value.Value]
	sized    bool
	recycled bool
}

// carve returns a zero header and w zero values, capped at w so an
// append by a consumer reallocates instead of writing into the next
// tuple's values.
//
//pjoin:hotpath
func (r *ResultSlab) carve(w int) (*Tuple, []value.Value) {
	if !r.sized {
		r.size()
	}
	return &r.hdrs.Take(1)[0], r.vals.Take(w)
}

func (r *ResultSlab) size() {
	r.sized = true
	if r.recycled {
		r.hdrs, r.vals = slab.New[Tuple](resultHdrs), slab.New[value.Value](resultVals)
	} else {
		r.hdrs, r.vals = slab.NewOnce[Tuple](resultHdrs), slab.NewOnce[value.Value](resultVals)
	}
}

// Join builds the join result of a and c at time ts (Tuple.FillJoin) in
// the slab.
//
//pjoin:hotpath
func (r *ResultSlab) Join(a, c *Tuple, ts Time) *Tuple {
	res, vals := r.carve(len(a.Values) + len(c.Values))
	res.FillJoin(vals, a, c, ts)
	return res
}

// NewTuple is stream.NewTuple building the tuple in the slab.
func (r *ResultSlab) NewTuple(s *Schema, ts Time, vals ...value.Value) (*Tuple, error) {
	if err := validate(s, vals); err != nil {
		return nil, err
	}
	t, vs := r.carve(len(vals))
	copy(vs, vals)
	t.Values, t.Ts = vs, ts
	return t, nil
}

// Keep is how an item is retained past the call that delivered it: it
// returns the item itself unless its tuple is borrowed, and otherwise the
// item with a copy of the tuple — header and values — made in r, which
// lives as long as r's tuples do: for ever in a holder's own slab (the
// returned item is no longer borrowed), until the batch is recycled in a
// batch's (it still is).
func (r *ResultSlab) Keep(it Item) Item {
	if it.Borrowed {
		it.Tuple, it.Borrowed = r.copyOf(it.Tuple), r.recycled
	}
	return it
}

// copyOf returns a copy of t, header and values, made in r.
func (r *ResultSlab) copyOf(t *Tuple) *Tuple {
	c, vals := r.carve(len(t.Values))
	copy(vals, t.Values)
	c.Values, c.Ts, c.Span = vals, t.Ts, t.Span
	return c
}

// RetainedBytes returns the size of the chunks the slab holds on to: the
// pair being carved for a holder's own slab, every chunk a batch's has
// grown to.
func (r *ResultSlab) RetainedBytes() int { return r.hdrs.Cap()*tupleBytes + r.vals.Cap()*valueBytes }

// Rewind makes r a recycled slab, a Batch's kind, and ends the lifetime
// of every tuple carved since the last Rewind: what was carved is zeroed
// (a stale reader finds nil Values; the slab pins no payload) and the
// next tuple starts at the first chunk. An owner that lends its tuples
// (Item.Borrowed) calls it before its first tuple and when they die.
func (r *ResultSlab) Rewind() {
	if r.sized && !r.recycled {
		panic("stream: Rewind of a holder's own ResultSlab")
	}
	r.recycled = true
	r.hdrs.Reset()
	r.vals.Reset()
}
