package stream

import (
	"sync"
	"sync/atomic"
)

// Batch is a pooled run of items: the unit exec edges move between
// goroutines. The receiver of a *Batch owns it and recycles it (Lane.Put)
// once the items have been processed. The pointer, not the slice, is what
// travels and what a lane holds, so a Put never boxes a slice header —
// recycling is allocation-free even when every batch holds a single item.
//
// A batch also carries the storage of the tuples that were built for it
// (AppendJoin, and Append of a borrowed item): they are valid until the
// batch is recycled, which is what Item.Borrowed says of them.
//
// A lent batch (Lend) owns no items: Items is a view of a run of someone
// else's slice — an exec source's input — and is read, never written. Its
// reader copies what it has to change, and recycling drops the view
// without clearing it.
type Batch struct {
	Items []Item
	res   ResultSlab
	lent  bool
}

// Lend points an empty batch at run, capped at its length, instead of
// copying it: the batch reads the caller's items, whose owner must leave
// them unchanged until the batch is recycled.
func (b *Batch) Lend(run []Item) {
	b.Items, b.lent = run[:len(run):len(run)], true
}

// Lent reports whether the batch's items are a view it does not own.
func (b *Batch) Lent() bool { return b.lent }

// AppendJoin appends the join result of a and c at time ts as a borrowed
// tuple item, built in the batch's own slab: a result the consumer drops
// costs no heap, one it keeps (ResultSlab.Keep) costs the copy.
//
//pjoin:hotpath
func (b *Batch) AppendJoin(a, c *Tuple, ts Time) {
	b.Items = append(b.Items, Item{Kind: KindTuple, Borrowed: true, Tuple: b.res.Join(a, c, ts), Ts: ts})
}

// Append appends it. A borrowed tuple is re-homed — copied into this
// batch's slab and still borrowed — so an operator that forwards the
// items it is handed needs no copy of its own and allocates nothing.
//
//pjoin:hotpath
func (b *Batch) Append(it Item) {
	if it.Borrowed {
		it.Tuple = b.res.copyOf(it.Tuple)
	}
	b.Items = append(b.Items, it)
}

// recycle empties a consumed batch: the items are cleared so the lane
// pins no tuples, and the slab is rewound and zeroed. A lent view is
// dropped, not cleared: clearing it would zero its owner's items.
func (b *Batch) recycle() {
	if b.lent {
		b.Items, b.lent = nil, false
	} else {
		clear(b.Items)
		b.Items = b.Items[:0]
	}
	b.res.Rewind()
}

// BatchPool is the batches of one owner (a pipeline): the lanes its edges
// recycle through, and their counts. The zero value is ready to use. A
// lane whose ring is empty allocates a fresh batch; nothing else makes
// one, and nothing but a lane takes one back.
type BatchPool struct {
	mu    sync.Mutex
	lanes []*Lane // guarded by mu
}

// Stats returns how many batches have been taken from and returned to
// the pool's lanes. The two are equal whenever no batch is in flight: the
// dynamic twin of the poolsafe lint.
func (p *BatchPool) Stats() (gets, puts int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range p.lanes {
		gets += l.taken.Load() + l.fresh.Load()
		puts += l.kept.Load() + l.dropped.Load()
	}
	return gets, puts
}

// Lane is the return path of one producer–consumer pair (an exec edge):
// the consumer puts a batch back where the producer takes its next one,
// so batches — and the result slabs they have grown — stay on the edge
// they were sized for and change hands without a lock. It is a ring of
// idle batches of bounded depth, counted in its pool's Stats: Get
// allocates a fresh batch when the ring is empty, Put leaves the batch to
// the collector when it is full. A lane whose producer only lends (an
// exec source's edge) circulates bare headers: Get(0) allocates no item
// array, and Put drops the view.
//
// Neither blocks, takes a lock or writes a word the other side writes, so
// a consumer may Put while the producer holds its own mutex across a
// send, and on per-item edges a batch changes hands for one atomic store
// and one load of the other side's counter each way. The price is the
// single-producer, single-consumer contract: Get is called by one
// goroutine at a time (an edge calls it under its mutex) and Put by one
// goroutine at a time (the edge's one consumer, an operator's driver or
// a Sink: exec refuses a second).
type Lane struct {
	ring []*Batch // a power of two long; slot i&mask holds the i-th batch kept
	mask int64
	_    [64]byte // what follows is written: keep it off the line read by both sides

	taken atomic.Int64 // batches taken from the ring; written by the taker only
	fresh atomic.Int64 // batches allocated because the ring was empty
	_     [48]byte

	kept    atomic.Int64 // batches put into the ring; written by the returner only
	dropped atomic.Int64 // batches that found the ring full
}

// Lane returns a lane over p that retains up to depth idle batches,
// rounded up to a power of two. A depth below what the pair can have in
// flight at once costs a fresh batch for each one over it every time the
// traffic between them drains and builds up again.
func (p *BatchPool) Lane(depth int) *Lane {
	size := 1
	for size < depth {
		size <<= 1
	}
	l := &Lane{ring: make([]*Batch, size), mask: int64(size - 1)}
	p.mu.Lock()
	p.lanes = append(p.lanes, l)
	p.mu.Unlock()
	return l
}

// Get returns an empty batch: a fresh one has room for n items, a
// recycled one keeps the room it was born with, whatever n is. An edge
// sizes the batches it asks for by what it carries, so a batch born
// small stays small and one born full size is never outgrown.
//
//pjoin:pool get
func (l *Lane) Get(n int) *Batch {
	i := l.taken.Load()
	if i == l.kept.Load() {
		l.fresh.Add(1)
		return &Batch{Items: make([]Item, 0, n), res: ResultSlab{recycled: true}}
	}
	b := l.ring[i&l.mask]
	l.ring[i&l.mask] = nil
	l.taken.Store(i + 1)
	return b
}

// Put recycles a consumed batch. The caller must not touch b afterwards.
//
//pjoin:pool put
func (l *Lane) Put(b *Batch) {
	b.recycle()
	i := l.kept.Load()
	if i-l.taken.Load() > l.mask {
		l.dropped.Add(1)
		return
	}
	l.ring[i&l.mask] = b
	l.kept.Store(i + 1)
}

// Stats returns how many batches the lane allocated because its ring was
// empty and how many it left to the collector because the ring was full.
// A lane as deep as everything its pair can have in flight shows at most
// that many fresh batches and no drops, however long it runs.
func (l *Lane) Stats() (fresh, dropped int64) {
	return l.fresh.Load(), l.dropped.Load()
}
