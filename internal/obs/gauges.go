package obs

import (
	"sync"

	"pjoin/internal/stream"
)

// Gauges is one snapshot of a join's live gauges: what its state holds
// and how far its input and output have got. The join fills it on its
// own goroutine (core.PJoin, on its virtual-time tick and at Finish) and
// publishes a copy on a Board. A gauge is one field here and one row of
// GaugeDefs.
type Gauges struct {
	Op    string      // the join's operator name: its gauges render as <prefix>_<Op>_<row name>
	At    stream.Time // virtual time of the fill
	Punct bool        // the join keeps punctuations (XJoin does not): the Punct rows render

	MemBytesA   int64 // memory-resident state bytes, side A
	MemBytesB   int64
	StateBytesA int64 // bytes the state retains (arena and wrappers included), side A
	StateBytesB int64
	DiskBytes   int64   // spilled bytes, both sides
	StateTuples int64   // tuples in state (memory, purge buffers, disk), both sides
	BucketSkew  float64 // the larger side's memory bucket skew
	MemGroups   int64   // key groups in memory, both sides
	TuplesOut   int64   // cumulative results
	TuplesIn    int64   // cumulative input tuples, both sides
	PunctLag    stream.Time
	PunctSetA   int64 // punctuation-set size (live entries and closed intervals), side A
	PunctSetB   int64
	PunctsOut   int64 // cumulative punctuations propagated
}

// GaugeDef is one row of the gauge table.
type GaugeDef struct {
	Name  string // wire name after <prefix>_<op>_
	Help  string // Prometheus HELP text
	Punct bool   // a punctuation gauge, which only a join that keeps punctuations exposes
	Of    func(*Gauges) float64
}

// GaugeDefs is the one declaration of the live gauges: WriteProm renders
// them from it.
var GaugeDefs = []GaugeDef{
	{"mem_bytes_a", "Memory-resident state bytes, side A.", false, func(g *Gauges) float64 { return float64(g.MemBytesA) }},
	{"mem_bytes_b", "Memory-resident state bytes, side B.", false, func(g *Gauges) float64 { return float64(g.MemBytesB) }},
	{"state_bytes_a", "Bytes the state retains, arena and wrappers included, side A.", false, func(g *Gauges) float64 { return float64(g.StateBytesA) }},
	{"state_bytes_b", "Bytes the state retains, arena and wrappers included, side B.", false, func(g *Gauges) float64 { return float64(g.StateBytesB) }},
	{"disk_bytes", "Spilled state bytes, both sides.", false, func(g *Gauges) float64 { return float64(g.DiskBytes) }},
	{"state_tuples", "Tuples in state (memory, purge buffers and disk), both sides.", false, func(g *Gauges) float64 { return float64(g.StateTuples) }},
	{"bucket_skew", "The larger side's memory bucket skew.", false, func(g *Gauges) float64 { return g.BucketSkew }},
	{"mem_groups", "Key groups in memory, both sides.", false, func(g *Gauges) float64 { return float64(g.MemGroups) }},
	{"tuples_out", "Results emitted (cumulative).", false, func(g *Gauges) float64 { return float64(g.TuplesOut) }},
	{"tuples_in", "Input tuples consumed, both sides (cumulative).", false, func(g *Gauges) float64 { return float64(g.TuplesIn) }},
	{"punct_lag_ms", "Newest input time minus the newest propagated punctuation's arrival (virtual ms).", true, func(g *Gauges) float64 { return g.PunctLag.Millis() }},
	{"punct_set_a", "Punctuation-set size, live entries and closed intervals, side A.", true, func(g *Gauges) float64 { return float64(g.PunctSetA) }},
	{"punct_set_b", "Punctuation-set size, live entries and closed intervals, side B.", true, func(g *Gauges) float64 { return float64(g.PunctSetB) }},
	{"puncts_out", "Punctuations propagated (cumulative).", true, func(g *Gauges) float64 { return float64(g.PunctsOut) }},
}

// Board is where one join publishes its gauges for readers on other
// goroutines (auctiond's /metrics, /debug/vars and health probe). The
// join asks Due on its own goroutine, fills its Gauges outside any lock
// when a fill is due and publishes a copy; Gauges returns the latest
// copy. The board holds that one snapshot, so a long run keeps it in
// constant memory. A nil *Board is inert.
type Board struct {
	every stream.Time
	next  stream.Time // the owner's goroutine only

	mu sync.Mutex //pjoin:lockrank leaf
	g  Gauges
}

// NewBoard returns a board whose join fills it once per `every` of
// virtual time (e.g. 10*stream.Millisecond). every <= 0 defaults to
// 100ms.
func NewBoard(every stream.Time) *Board {
	if every <= 0 {
		every = 100 * stream.Millisecond
	}
	return &Board{every: every}
}

// Due reports whether a fill is due at now and, when it is, moves the
// deadline one period past now. The owning join's goroutine only.
func (b *Board) Due(now stream.Time) bool {
	if b == nil || now < b.next {
		return false
	}
	b.next = now + b.every
	return true
}

// Publish stores a copy of g.
func (b *Board) Publish(g *Gauges) {
	b.mu.Lock()
	b.g = *g
	b.mu.Unlock()
}

// Gauges returns a copy of the latest published snapshot (the zero
// Gauges before the first, or on a nil board). Safe from any goroutine.
func (b *Board) Gauges() Gauges {
	if b == nil {
		return Gauges{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.g
}
