// Package obs is the operator observability layer: one handle (Instr)
// threaded through every operator (PJoin, XJoin, ShardedPJoin, the
// executor), carrying the operator's identity and the two things a
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
//   - Live metrics: gauges registered by the operators (state bytes,
//     disk bytes, bucket skew, punctuation lag, cumulative output) and
//     sampled by Live on a configurable virtual-time tick, exported as
//     metrics.Series so the existing CSV/chart tooling renders them.
//
// Latency histograms (Lat, declared once in the Hists table) are kept by
// the operators themselves and snapshotted on request.
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
// tracer, an optional live sampler, and the operator's identity (name +
// shard). A nil *Instr is fully inert — every method is a cheap no-op —
// so operators call unconditionally.
type Instr struct {
	tr    span.Tracer
	live  *Live
	op    string
	shard int32
}

// NewInstr builds a handle for the named operator. tr may be nil (no
// tracing); live may be nil (no sampling). Returns nil when both are
// nil, so "observability off" stays a single nil check.
func NewInstr(tr span.Tracer, live *Live, op string) *Instr {
	if tr == nil && live == nil {
		return nil
	}
	if tr == nil {
		tr = span.Nop
	}
	return &Instr{tr: tr, live: live, op: op, shard: -1}
}

// Derive returns a handle for a sub-component (e.g. one shard) sharing
// the parent's tracer and sampler. shard < 0 means unsharded. Deriving
// from a nil handle yields nil.
func (in *Instr) Derive(op string, shard int) *Instr {
	if in == nil {
		return nil
	}
	return &Instr{tr: in.tr, live: in.live, op: op, shard: int32(shard)}
}

// WithoutLive returns a copy whose live sampler is detached (tracing
// kept). The sharded join hands this to its shards: its router ticks the
// sampler and registers the aggregated gauges, once for all shards.
func (in *Instr) WithoutLive() *Instr {
	if in == nil {
		return nil
	}
	if in.live == nil {
		return in
	}
	if in.tr == span.Nop {
		return nil
	}
	return &Instr{tr: in.tr, op: in.op, shard: in.shard}
}

// Op returns the operator name ("" on a nil handle).
func (in *Instr) Op() string {
	if in == nil {
		return ""
	}
	return in.op
}

// Live returns the live sampler, or nil.
func (in *Instr) Live() *Live {
	if in == nil {
		return nil
	}
	return in.live
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
// cross-shard ordering need it, and those spans are rare); tuple spans
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
		//pjoin:allow hotpath non-tuple spans (punct, pass, point) are rare and need real wall time for purge latency and cross-shard ordering
		wall = time.Now().UnixNano()
	}
	in.tr.Emit(span.Span{
		ID: span.NewID(), Trace: trace, Kind: k, At: at, Wall: wall,
		Op: in.op, Shard: in.shard, Side: int8(side), N: n, M: m, B: bytes, D: dur,
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
		Op: in.op, Shard: in.shard, Side: int8(side), Err: err.Error(),
	})
}

// Tick offers the live sampler a chance to sample at the given virtual
// time. Free when no sampler is attached or the tick is not yet due.
func (in *Instr) Tick(now stream.Time) {
	if in == nil || in.live == nil {
		return
	}
	in.live.Tick(now)
}
