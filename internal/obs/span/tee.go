package span

import "sync/atomic"

// Tee is the Tracer a process attaches when its spans have more than one
// destination (auctiond: the flight ring and the -trace file) and the
// one place spans are counted by kind — what the Prometheus span
// families scrape, whichever sinks are attached.
type Tee struct {
	sinks []Tracer
	kinds [numKinds]atomic.Int64
}

// NewTee returns a tracer handing every span to each enabled sink.
func NewTee(sinks ...Tracer) *Tee { return &Tee{sinks: sinks} }

// Enabled implements Tracer: some sink still records.
func (t *Tee) Enabled() bool {
	for _, s := range t.sinks {
		if s.Enabled() {
			return true
		}
	}
	return false
}

// Emit implements Tracer.
func (t *Tee) Emit(s Span) {
	if int(s.Kind) < numKinds {
		t.kinds[s.Kind].Add(1)
	}
	for _, sink := range t.sinks {
		if sink.Enabled() {
			sink.Emit(s)
		}
	}
}

// Counts returns how many spans of each kind were emitted, indexed by
// Kind; nil on a nil Tee (tracing off).
func (t *Tee) Counts() []int64 {
	if t == nil {
		return nil
	}
	out := make([]int64, numKinds)
	for i := range t.kinds {
		out[i] = t.kinds[i].Load()
	}
	return out
}

var _ Tracer = (*Tee)(nil)
