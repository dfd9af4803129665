// Package stream stubs the shared batch pool type and an edge's return
// lane in front of it: poolsafe must recognise BatchPool.Get / Put and
// Lane.Get / Put from the importing package, where the markers below are
// not visible.
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

type Lane struct {
	pool *BatchPool
	free chan *Batch
}

//pjoin:pool get
func (l *Lane) Get(n int) *Batch {
	select {
	case b := <-l.free:
		return b
	default:
		return l.pool.Get(n)
	}
}

//pjoin:pool put
func (l *Lane) Put(b *Batch) {
	b.Items = b.Items[:0]
	select {
	case l.free <- b:
	default:
	}
}
