// Package sharedpool exercises poolsafe on callers of the shared lane
// type in an imported stream package, the shape exec has.
package sharedpool

import "stream"

// edge takes its batches from, and gives them back to, a lane.
type edge struct {
	lane *stream.Lane
	ch   chan *stream.Batch
}

// emit takes from the lane and sends: clean. Appending into the batch's
// own field keeps the obligation on b.
func (e *edge) emit(it stream.Item) {
	b := e.lane.Get(1)
	b.Items = append(b.Items, it)
	e.ch <- b
}

// peekAfterReturn gives the batch back to the lane and then reads it.
func (e *edge) peekAfterReturn() int {
	b := e.lane.Get(1)
	e.lane.Put(b)
	return len(b.Items) // want "use of pooled batch b after it was recycled at line \\d+"
}

// leak takes from the lane and forgets the batch on a non-error path.
func (e *edge) leak(it stream.Item, skip bool) {
	b := e.lane.Get(1)
	b.Items = append(b.Items, it)
	if skip {
		return // want "^pooled batch b \\(obtained at line 30\\) is not recycled on this path: put it back or transfer ownership$"
	}
	e.ch <- b
}
