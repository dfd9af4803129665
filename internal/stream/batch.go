package stream

import (
	"sync"
	"sync/atomic"
)

// Batch is a pooled run of items: the unit exec edges and the sharded
// router move between goroutines. The receiver of a *Batch owns it and
// recycles it with BatchPool.Put once the items have been processed. The
// pointer, not the slice, is what travels and what the pool holds, so a
// Put never boxes a slice header — recycling is allocation-free even
// when every batch holds a single item.
type Batch struct {
	Items []Item
}

// BatchPool recycles batches between the goroutines that fill them and
// the ones that consume them. The zero value is ready to use. Each
// pipeline and each sharded join owns one, so the batches in a pool all
// have the capacity its owner asks for (a process-wide pool would hand
// the 256-item buffers of one pipeline to the one-item batches of the
// next) and its counters describe one owner.
type BatchPool struct {
	pool       sync.Pool
	gets, puts atomic.Int64
}

// Get returns an empty batch with room for at least n items.
//
//pjoin:pool get
func (p *BatchPool) Get(n int) *Batch {
	p.gets.Add(1)
	b, _ := p.pool.Get().(*Batch)
	if b == nil {
		b = new(Batch)
	}
	if cap(b.Items) < n {
		b.Items = make([]Item, 0, n)
	}
	return b
}

// Put recycles a consumed batch, clearing its items so the pool pins no
// tuples. The caller must not touch b afterwards.
//
//pjoin:pool put
func (p *BatchPool) Put(b *Batch) {
	clear(b.Items)
	b.Items = b.Items[:0]
	p.puts.Add(1)
	p.pool.Put(b)
}

// Stats returns how many batches have been taken from and returned to
// the pool. The two are equal whenever no batch is in flight: the
// dynamic twin of the poolsafe lint.
func (p *BatchPool) Stats() (gets, puts int64) {
	return p.gets.Load(), p.puts.Load()
}
