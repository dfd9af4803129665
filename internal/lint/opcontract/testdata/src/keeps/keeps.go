// Package keeps holds one operator that stores what it is delivered in
// every way the retention rule covers, and one that keeps or forwards it
// the sanctioned way.
package keeps

import (
	"op"
	"stream"
)

type held struct {
	t *stream.Tuple
}

// last is package state: it outlives every call.
var last *stream.Tuple

// Hoard retains delivered tuples without Keep: the item, its tuple and
// the tuple's values, into a field, a map, a slice, a channel and a
// package variable, directly, through locals, through a wrapping struct
// and through a helper.
type Hoard struct {
	eos    int
	item   stream.Item
	tuple  *stream.Tuple
	vals   []int
	table  map[int][]*stream.Tuple
	queue  []stream.Item
	held   []held
	tuples chan *stream.Tuple
	first  int
}

func (h *Hoard) Process(in int, it stream.Item, em op.Emitter) error {
	if it.Kind == stream.KindEOS {
		h.eos++
		return nil
	}
	h.item = it                  // want "^stores a delivered tuple past the call: a borrowed item's tuple is recycled with its batch when Process returns; retain it through ResultSlab\\.Keep, or hand the item to the Emitter$"
	h.tuple = it.Tuple           // want "stores a delivered tuple past the call"
	h.vals = it.Tuple.Values[1:] // want "stores a delivered tuple past the call"
	t := it.Tuple
	key := t.Values[0]
	h.table[key] = append(h.table[key], t)     // want "stores a delivered tuple past the call"
	h.held = append(h.held, held{t: it.Tuple}) // want "stores a delivered tuple past the call"
	h.tuples <- t                              // want "stores a delivered tuple past the call"
	last = t                                   // want "stores a delivered tuple past the call"
	h.first = t.Values[0]
	h.stash(t)
	return nil
}

func (h *Hoard) ProcessBatch(in int, its []stream.Item, em op.Emitter) error {
	h.queue = append(h.queue, its...) // want "stores a delivered tuple past the call"
	for i := range its {
		h.queue[0] = its[i] // want "stores a delivered tuple past the call"
	}
	for _, it := range its {
		p := &it
		h.tuple = p.Tuple // want "stores a delivered tuple past the call"
	}
	return nil
}

func (h *Hoard) stash(t *stream.Tuple) {
	h.tuple = t // want "stores a delivered tuple past the call"
}

func (h *Hoard) Finish(em op.Emitter) error {
	em.Emit(stream.EOSItem(0))
	return nil
}

// Keeper does everything Hoard does through Keep or the Emitter, and uses
// delivered tuples freely inside the call.
type Keeper struct {
	eos     int
	kept    stream.ResultSlab
	item    stream.Item
	tuple   *stream.Tuple
	arrived stream.Time
	table   map[int][]*stream.Tuple
	queue   []stream.Item
	sum     int
	seen    map[int]bool
	widths  []int
}

func (k *Keeper) Process(in int, it stream.Item, em op.Emitter) error {
	if it.Kind == stream.KindEOS {
		k.eos++
		return nil
	}
	k.item = k.kept.Keep(it)
	k.tuple = k.kept.Keep(it).Tuple
	t := k.kept.Keep(it).Tuple
	k.table[t.Values[0]] = append(k.table[t.Values[0]], t)
	k.insert(k.kept.Keep(it).Tuple, it.Ts)
	// Single values copied out of a delivered tuple are plain values.
	k.sum += it.Tuple.Values[0]
	k.seen[it.Tuple.Values[0]] = true
	k.widths = append(k.widths, len(it.Tuple.Values))
	// Locals die with the call.
	local := []*stream.Tuple{it.Tuple}
	local[0] = it.Tuple
	byKey := map[int]*stream.Tuple{}
	byKey[0] = local[0]
	// Forwarding is the Emitter's business.
	em.Emit(it)
	return nil
}

func (k *Keeper) ProcessBatch(in int, its []stream.Item, em op.Emitter) error {
	for i := range its {
		its[i].Ts++ // the delivered slice itself has the call's lifetime
		k.queue = append(k.queue, k.kept.Keep(its[i]))
	}
	return nil
}

func (k *Keeper) insert(t *stream.Tuple, ats stream.Time) {
	k.tuple = t
	k.arrived = ats
}

func (k *Keeper) Finish(em op.Emitter) error {
	// Outside Process-reachable code nothing is being delivered.
	em.Emit(stream.EOSItem(0))
	return nil
}
