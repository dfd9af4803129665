package span

import "sync"

// Recorder is a Tracer that keeps every span in memory, for tests and
// for reconciling a trace against operator metrics.
type Recorder struct {
	mu    sync.Mutex //pjoin:lockrank leaf
	spans []Span
}

// Enabled implements Tracer.
func (r *Recorder) Enabled() bool { return true }

// Emit implements Tracer.
func (r *Recorder) Emit(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Count returns how many spans of the given kind were recorded.
func (r *Recorder) Count(k Kind) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, s := range r.spans {
		if s.Kind == k {
			n++
		}
	}
	return n
}

var _ Tracer = (*Recorder)(nil)
