// Package obs is the operator observability layer: one handle (Instr)
// threaded through every operator (PJoin, XJoin, the executor), carrying the operator's identity and the two things a
// running join reports into.
//
// The paper's whole argument rests on measuring what punctuations buy —
// state size over time, purge work, output rate, disk I/O (§4 figures).
// This package makes those quantities visible while an operator runs
// instead of only as post-hoc bench CSVs, in the spirit of the
// inter-operator feedback and adaptive-partitioning lines of follow-on
// work (PAPERS.md), which both presuppose runtime-visible signals.
//
//   - Tracing: spans (internal/obs/span — the one record type, kind
//     table, Tracer interface and JSONL encoding) handed to the attached
//     span.Tracer: span.JSONL writes a file, span.Recorder collects for
//     tests, Ring keeps the last N for the flight recorder.
//
//   - Live gauges: a join's state bytes, disk bytes, bucket skew,
//     punctuation lag and cumulative input and output, one typed
//     snapshot (Gauges, declared once in the GaugeDefs table) that the
//     join fills on a virtual-time tick and publishes on a Board, where
//     other goroutines read the latest copy.
//
// Latency histograms (Lat, declared once in the Hists table) are kept by
// the operators themselves and snapshotted on request. WriteProm renders
// histograms, gauges and span counters from their tables.
//
// # Overhead budget
//
// Operators call Instr methods unconditionally from their hot paths, so
// the disabled path must be free: a nil *Instr (observability off) or a
// disabled tracer short-circuits after one branch and performs ZERO
// allocations — enforced by AllocsPerRun guards in alloc_test.go,
// matching the hot-path convention of internal/joinbase and
// internal/punct. Spans are plain value structs handed to the Tracer by
// value; building one allocates nothing.
package obs

import (
	"time"

	"pjoin/internal/obs/span"
	"pjoin/internal/stream"
)

// Instr is the instrumentation handle an operator carries: a span
// tracer, an optional gauge board, and the operator's name. A nil *Instr is fully inert — every method is a cheap no-op —
// so operators call unconditionally.
type Instr struct {
	tr    span.Tracer
	board *Board
	op    string
}

// NewInstr builds a handle for the named operator. tr may be nil (no
// tracing); board may be nil (no gauges). Returns nil when both are
// nil, so "observability off" stays a single nil check.
func NewInstr(tr span.Tracer, board *Board, op string) *Instr {
	if tr == nil && board == nil {
		return nil
	}
	if tr == nil {
		tr = span.Nop
	}
	return &Instr{tr: tr, board: board, op: op}
}

// Derive returns a handle for another operator (a source, a driven
// operator) sharing the parent's tracer; a board belongs to one join, so
// the derived handle has none. Deriving from a nil handle yields nil.
func (in *Instr) Derive(op string) *Instr {
	if in == nil {
		return nil
	}
	return &Instr{tr: in.tr, op: op}
}

// Op returns the operator name ("" on a nil handle).
func (in *Instr) Op() string {
	if in == nil {
		return ""
	}
	return in.op
}

// Board returns the gauge board, or nil.
func (in *Instr) Board() *Board {
	if in == nil {
		return nil
	}
	return in.board
}

// Enabled reports whether tracing is active. The disabled path is one
// nil check plus one interface call — zero allocations — so operators
// gate span bookkeeping (attribution maps, byte sums) on it from hot
// paths.
func (in *Instr) Enabled() bool {
	return in != nil && in.tr.Enabled()
}

// Span emits a span with the handle's identity filled in, allocating a
// fresh span ID; trace 0 makes it a point record. Every family but the
// tuple one is stamped with the process wall clock (purge wall time and
// cross-operator ordering need it, and those spans are rare); tuple spans
// are not — they are the volume class under full sampling, their
// analysis runs on At and D alone, and a time.Now per result span is
// measurable in a fully traced run's CPU per tuple against the detached
// figure (benchmark/: live.cpu_us_per_tuple on fanout_sat). No-op (and
// allocation-free) when tracing is disabled.
//
//pjoin:hotpath
func (in *Instr) Span(k span.Kind, trace uint64, at stream.Time, side int, n, m, bytes, dur int64) {
	if in == nil || !in.tr.Enabled() {
		return
	}
	var wall int64
	if !k.IsTuple() {
		//pjoin:allow hotpath non-tuple spans (punct, pass, point) are rare and need real wall time for purge latency and cross-operator ordering
		wall = time.Now().UnixNano()
	}
	in.tr.Emit(span.Span{
		ID: span.NewID(), Trace: trace, Kind: k, At: at, Wall: wall,
		Op: in.op, Side: int8(side), N: n, M: m, B: bytes, D: dur,
	})
}

// SpillError records a spill-store failure (a spill_error point span
// carrying the error text) alongside the error the operator returns to
// its caller.
func (in *Instr) SpillError(at stream.Time, side int, err error) {
	if in == nil || !in.tr.Enabled() || err == nil {
		return
	}
	in.tr.Emit(span.Span{
		ID: span.NewID(), Kind: span.KindSpillError, At: at, Wall: time.Now().UnixNano(),
		Op: in.op, Side: int8(side), Err: err.Error(),
	})
}
