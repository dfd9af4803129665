package obs

import (
	"sync"

	"pjoin/internal/obs/span"
)

// Ring is a bounded span.Tracer holding the most recent `capacity` spans
// — the flight recorder's store. Older spans are overwritten in place,
// so a long run costs a fixed amount of memory and the tail of the trace
// is always available for a post-mortem dump.
type Ring struct {
	mu    sync.Mutex
	buf   []span.Span
	next  int   // next write slot
	total int64 // spans ever offered (not capped)
}

// NewRing returns a ring keeping the last capacity spans (min 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]span.Span, 0, capacity)}
}

// Enabled implements span.Tracer.
func (r *Ring) Enabled() bool { return true }

// Emit implements span.Tracer.
func (r *Ring) Emit(e span.Span) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
	}
	r.next++
	if r.next == cap(r.buf) {
		r.next = 0
	}
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the retained spans oldest → newest.
func (r *Ring) Snapshot() []span.Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span.Span, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Total returns how many spans were ever offered to the ring,
// including those since overwritten.
func (r *Ring) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

var _ span.Tracer = (*Ring)(nil)
