package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"pjoin/internal/metrics"
	"pjoin/internal/stream"
)

// Live samples a set of registered gauges on a virtual-time tick and
// accumulates the samples as metrics.Series.
//
// Concurrency model: Tick is called from the operator's own processing
// path (via Instr.Tick), so gauge closures run on the goroutine that owns
// the operator state — they may read that state without extra locking.
// The tick claim is a single atomic compare-and-swap, so concurrent
// callers (several operators offering the same tick) sample at most once,
// and a not-yet-due tick costs one atomic load and zero allocations.
// Readers (Series, LastValues) take the sample mutex and may run on any
// goroutine — that is how the expvar endpoint observes a running
// operator without touching operator state.
type Live struct {
	every int64        // sampling period, ns of virtual time
	next  atomic.Int64 // virtual deadline of the next sample

	mu     sync.Mutex //pjoin:lockrank 10
	gauges []gauge
	series map[string]*metrics.Series
	last   map[string]float64
	lastAt stream.Time
}

type gauge struct {
	name string
	fn   func() float64
}

// NewLive returns a sampler that takes one sample per `every` of virtual
// time (e.g. 100*stream.Millisecond). every <= 0 defaults to 100ms.
func NewLive(every stream.Time) *Live {
	if every <= 0 {
		every = 100 * stream.Millisecond
	}
	return &Live{
		every:  int64(every),
		series: make(map[string]*metrics.Series),
		last:   make(map[string]float64),
	}
}

// Register adds a named gauge. Gauges run on the ticking operator's
// goroutine (see type doc); register before the operator starts.
//
// The gauge is sampled once immediately, timestamped with the sampler's
// last sample time (t=0 for a fresh sampler), so every series has at
// least one point even when the run ends before the first period
// elapses — a run shorter than `every` used to produce empty series.
func (l *Live) Register(name string, fn func() float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gauges = append(l.gauges, gauge{name: name, fn: fn})
	if _, ok := l.series[name]; !ok {
		l.series[name] = &metrics.Series{Name: name}
	}
	v := fn()
	l.series[name].Add(l.lastAt.Millis(), v)
	l.last[name] = v
}

// Tick samples every gauge if the sampling period has elapsed since the
// last sample. Cheap when not due: one atomic load + compare.
func (l *Live) Tick(now stream.Time) {
	for {
		due := l.next.Load()
		if int64(now) < due {
			return
		}
		// Claim this sample; losers of the race skip it.
		if l.next.CompareAndSwap(due, int64(now)+l.every) {
			break
		}
	}
	l.sample(now)
}

// sample runs the gauges and appends one point per series.
func (l *Live) sample(now stream.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := now.Millis()
	for _, g := range l.gauges {
		v := g.fn()
		l.series[g.name].Add(t, v)
		l.last[g.name] = v
	}
	l.lastAt = now
}

// Flush forces a final sample at the given time regardless of the tick,
// so a run's last state is always represented.
func (l *Live) Flush(now stream.Time) {
	l.next.Store(int64(now) + l.every)
	l.sample(now)
}

// Series returns the accumulated series, sorted by name.
func (l *Live) Series() []metrics.Series {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]metrics.Series, 0, len(l.series))
	for _, s := range l.series {
		cp := metrics.Series{Name: s.Name, Points: make([]metrics.Point, len(s.Points))}
		copy(cp.Points, s.Points)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LastValues returns the most recent sample of every gauge and its
// virtual timestamp — what the expvar endpoint publishes.
func (l *Live) LastValues() (map[string]float64, stream.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]float64, len(l.last))
	for k, v := range l.last {
		out[k] = v
	}
	return out, l.lastAt
}
