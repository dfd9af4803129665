// Package slab provides the chunked allocator behind the spill-scan
// decode arena (store.State, stream.Arena) and the join results
// (stream.ResultSlab): runs of T are carved from fixed-size chunks.
//
// A slab built by New is recyclable: the chunks are wiped and carved
// again after the owner's next Reset instead of being left to the
// collector, so what it hands out has a stated lifetime. A slab built by
// NewOnce carves each chunk once and forgets it — the never-recycled
// device of the insert path (store.alloc's StoredTuple wrappers, a
// holder's own ResultSlab) behind the same call: a run lives as long as
// its holder keeps it, and a single surviving run keeps its chunk, and
// only its chunk, reachable.
package slab

// Slab hands out runs of T. A Slab built by New or NewOnce carves them
// from chunks of a fixed length; the zero Slab has chunk length 0, so
// every Take is an allocation of its own that the slab never sees again —
// plain heap allocation behind the same call, which is what a one-off
// decode wants. Not safe for concurrent use.
type Slab[T any] struct {
	chunks [][]T // each of length size
	ci     int   // chunk being carved; == len(chunks) when a fresh one is due
	off    int   // first free element of chunks[ci]
	size   int
	once   bool // a carved-up chunk is forgotten, not kept for the next Reset
}

// New returns a recyclable slab whose chunks hold chunkLen elements.
func New[T any](chunkLen int) Slab[T] { return Slab[T]{size: chunkLen} }

// NewOnce returns a slab that retains nothing but the chunk it is
// carving: Reset, which would wipe runs their holders still own, must not
// be called on it.
func NewOnce[T any](chunkLen int) Slab[T] { return Slab[T]{size: chunkLen, once: true} }

// Take returns n consecutive zero elements, capped at n so an append
// reallocates instead of running into the neighbouring run. They stay
// untouched by the slab until the next Reset. A run that does not fit in
// the rest of the current chunk starts the next one (the remainder is
// wasted until Reset).
//
//pjoin:hotpath
func (s *Slab[T]) Take(n int) []T {
	if n > s.size {
		//pjoin:allow hotpath oversized run: a run longer than a chunk is its own allocation, one per such run and never retained (chunk lengths are sized so spill tuples never are one)
		return make([]T, n)
	}
	if s.ci < len(s.chunks) && s.off+n > s.size {
		s.ci++
		s.off = 0
		if s.once {
			s.chunks, s.ci = s.chunks[:0], 0
		}
	}
	if s.ci == len(s.chunks) {
		//pjoin:allow hotpath slab refill: one allocation per chunk of elements, and none once a recyclable slab's retained chunks cover its owner's use
		s.chunks = append(s.chunks, make([]T, s.size))
	}
	run := s.chunks[s.ci][s.off : s.off+n : s.off+n]
	s.off += n
	return run
}

// Reset ends the lifetime of everything taken so far: what was carved is
// zeroed — a holder of a stale run reads zero values, and nothing the runs
// pointed to stays reachable through the slab — and the next Take starts
// over at the first chunk. Only the carved part is written (elements
// never handed out since the last Reset are still zero), so a Reset costs
// what was taken, not what is retained.
func (s *Slab[T]) Reset() {
	for i := 0; i < s.ci; i++ {
		clear(s.chunks[i])
	}
	if s.ci < len(s.chunks) {
		clear(s.chunks[s.ci][:s.off])
	}
	s.ci, s.off = 0, 0
}

// Trim lets go of all but the first keep chunks. Runs already taken from
// a dropped chunk stay valid (the holder keeps the chunk alive); the slab
// just no longer retains it.
func (s *Slab[T]) Trim(keep int) {
	if len(s.chunks) <= keep {
		return
	}
	clear(s.chunks[keep:])
	s.chunks = s.chunks[:keep]
	if s.ci >= keep {
		s.ci, s.off = keep, 0
	}
}

// Cap returns the number of elements in retained chunks.
func (s *Slab[T]) Cap() int { return len(s.chunks) * s.size }
