// Package stamps holds one operator that takes its arrival time from
// the incoming item's shared tuple and one that takes it from the item.
package stamps

import (
	"op"
	"stream"
)

// Stale reads the tuple's own Ts in every place the rule covers: the
// Process body, the ProcessBatch body (indexed and ranged), and a helper
// reachable from them.
type Stale struct {
	eos  int
	last stream.Time
}

func (s *Stale) Process(in int, it stream.Item, em op.Emitter) error {
	if it.Kind == stream.KindEOS {
		s.eos++
		return nil
	}
	s.last = it.Tuple.Ts // want "^reads the incoming item's Tuple\\.Ts: tuples are shared and never restamped, the arrival time is the item's Ts \\(or now\\)$"
	s.note(it)
	return nil
}

func (s *Stale) ProcessBatch(in int, its []stream.Item, em op.Emitter) error {
	for i := range its {
		s.last = its[i].Tuple.Ts // want "reads the incoming item's Tuple\\.Ts"
	}
	for _, it := range its {
		if (it.Tuple).Ts > s.last { // want "reads the incoming item's Tuple\\.Ts"
			s.last = it.Ts
		}
	}
	return nil
}

func (s *Stale) note(it stream.Item) {
	s.last = it.Tuple.Ts // want "reads the incoming item's Tuple\\.Ts"
}

func (s *Stale) Finish(em op.Emitter) error {
	em.Emit(stream.EOSItem(s.last))
	return nil
}

// Fresh takes the arrival time from the item and reads Ts only on a
// tuple it retained — a header it stamped itself.
type Fresh struct {
	eos    int
	stored *stream.Tuple
	last   stream.Time
}

func (f *Fresh) Process(in int, it stream.Item, em op.Emitter) error {
	if it.Kind == stream.KindEOS {
		f.eos++
		return nil
	}
	f.stored = &stream.Tuple{Ts: it.Ts}
	f.last = f.stored.Ts
	return nil
}

func (f *Fresh) Finish(em op.Emitter) error {
	// Outside Process-reachable code the rule does not apply.
	em.Emit(stream.EOSItem(f.stored.Ts))
	return nil
}
