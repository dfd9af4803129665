// Package sharedpool exercises poolsafe on callers of the shared pool
// type in an imported stream package, the shape exec and parallel have.
package sharedpool

import "stream"

type router struct {
	pool  stream.BatchPool
	queue chan *stream.Batch
}

// routeOne fills a batch of one and hands it to the queue: clean.
// Appending into the batch's own field keeps the obligation on b.
func (r *router) routeOne(it stream.Item) {
	b := r.pool.Get(1)
	b.Items = append(b.Items, it)
	r.queue <- b
}

// dropOnSkip loses the batch on a non-error path.
func (r *router) dropOnSkip(it stream.Item, skip bool) {
	b := r.pool.Get(1)
	b.Items = append(b.Items, it)
	if skip {
		return // want "^pooled batch b \\(obtained at line 22\\) is not recycled on this path: put it back or transfer ownership$"
	}
	r.queue <- b
}

// consume recycles and then reads the batch.
func (r *router) consume() int {
	b := r.pool.Get(1)
	r.pool.Put(b)
	return len(b.Items) // want "use of pooled batch b after it was recycled at line \\d+"
}

// edge is the exec shape: batches come from, and go back to, a lane.
type edge struct {
	lane *stream.Lane
	ch   chan *stream.Batch
}

// emit takes from the lane and sends: clean.
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

// leak takes from the lane and forgets the batch.
func (e *edge) leak(it stream.Item, skip bool) {
	b := e.lane.Get(1)
	b.Items = append(b.Items, it)
	if skip {
		return // want "^pooled batch b \\(obtained at line \\d+\\) is not recycled on this path"
	}
	e.ch <- b
}
