// Package stream stubs an edge's return lane: poolsafe must recognise
// Lane.Get / Put from the importing package, where the markers below are
// not visible.
package stream

type Item struct{ Ts int64 }

type Batch struct{ Items []Item }

type Lane struct{ free chan *Batch }

//pjoin:pool get
func (l *Lane) Get(n int) *Batch {
	select {
	case b := <-l.free:
		return b
	default:
		return &Batch{Items: make([]Item, 0, n)}
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
