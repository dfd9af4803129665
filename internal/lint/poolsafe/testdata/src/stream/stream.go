// Package stream stubs the shared batch pool type: poolsafe must
// recognise BatchPool.Get and BatchPool.Put from the importing package,
// where the markers below are not visible.
package stream

type Item struct{ Ts int64 }

type Batch struct{ Items []Item }

type BatchPool struct{ free []*Batch }

//pjoin:pool get
func (p *BatchPool) Get(n int) *Batch {
	if k := len(p.free); k > 0 {
		b := p.free[k-1]
		p.free = p.free[:k-1]
		return b
	}
	return &Batch{Items: make([]Item, 0, n)}
}

//pjoin:pool put
func (p *BatchPool) Put(b *Batch) {
	b.Items = b.Items[:0]
	p.free = append(p.free, b)
}
