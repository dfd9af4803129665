// Package span is the trace record of the obs stack: one Span type, one
// Tracer interface, one JSONL encoding. Spans carry process-unique IDs
// and are causally linked through a Trace ID that follows (a) every
// punctuation through its lifecycle — arrival, each memory/disk purge
// step, deferred propagation, final emit — with per-span tuples-dropped
// and bytes-reclaimed attribution, (b) sampled tuples through
// ingest → edge batch → operator delivery → probe → result emit,
// and (c) disk-join passes, so spill/cache I/O is attributed to the pass
// that caused it. Records that belong to no lifecycle — a purge run, a
// relocation, a spill failure, an operator starting — are point spans:
// Trace 0, complete on their own. `cmd/pjointrace` reads the JSONL
// output offline and reconstructs lifecycles.
//
// # The kind table
//
// Every kind, its family (IsPunct / IsPass / IsTuple / IsPoint partition
// the taxonomy), who emits it, what N/M/B/D/Err carry (B is always
// bytes, D always nanoseconds), and the joinbase.Metrics counter it
// reconciles with (oracle/spancheck holds the identities):
//
//	punct family — one trace per punctuation, never sampled
//	punct_arrive      core     Side = input side, N = PID the set assigned. Per side, with
//	                  punct_discard: PunctsIn
//	punct_purge_mem   core     one punctuation's share of one memory-purge run: Side = victim state,
//	                  N = tuples freed, M = parked to the purge buffer, B = bytes freed, D = the run's
//	                  wall time (shared by the run's spans). Σ N with punct_purge_disk: Purged
//	punct_drop_fly    core     a tuple dropped on the fly (§4.3): Side = its port, N = 1 dropped / M = 1
//	                  parked instead (disk portion pending), B = bytes. Σ N: DroppedOnFly
//	punct_purge_disk  core     one tuple dropped from the disk portion during a pass, attributed to the
//	                  punctuation in force at bucket open: Side = victim state, N = 1, B = its spill
//	                  record's length (what the partition loses)
//	punct_defer       core     propagation of a ready punctuation deferred: N = PID, M = 1 a disk pass is
//	                  in flight, 2 its own disk purge is pending
//	punct_emit        core     released downstream, the terminal of a healthy lifecycle: N = PID,
//	                  D = propagation delay in stream time. Count: PunctsOut
//	punct_eos_close   core     Finish found the punctuation unpropagated; closed so no lifecycle dangles
//
//	pass family — one trace per disk pass, never sampled
//	pass_start        joinbase N = 1 budgeted (resumable) pass, 0 run to completion
//	pass_chunk        joinbase one bounded step: N = candidate pairs examined, M = results, B = spill
//	                  bytes read, D = step wall. DiskChunks (the step that only finds the pass complete
//	                  is not one)
//	pass_io           joinbase once at pass end: N = read ops + chunk reads, M = spill-cache hits,
//	                  B = bytes read post-cache
//	pass_end          joinbase N = pairs examined, M = results, B = bytes read, D = pass wall (chunked:
//	                  first step to last). DiskPasses
//
//	tuple family — one trace per tuple the Sampler admitted (Tuple.Span), no wall stamp
//	tuple_ingest      exec     a source admitted the tuple. Side -1 (the deliver span knows the port)
//	tuple_cut         exec     its batch was cut: N = batch length, M = 1 forced (punct/EOS/linger/close)
//	tuple_deliver     exec     the driver delivered it, restamped: Side = port, D = queue + linger
//	tuple_probe       core     its probe completed: Side = probing side, N = matches, M = examined.
//	                  With every tuple admitted: TuplesIn
//	tuple_result      core     a result descending from it was emitted: D = result latency. At most
//	                  ResultCap per probe burst or pass step — tuple_probe.N has the exact match count
//
//	point family — Trace 0, no lifecycle, never an orphan
//	purge_run         core     one purge run ended, matched or not: Side = victim state, N = tuples
//	                  removed or parked, M = scanned. Count: PurgeRuns, Σ M: PurgeScanned
//	relocate          joinbase a bucket spilled: Side = state, N = tuples moved, M = bucket. Relocations
//	spill_error       joinbase a spill-store operation failed: Side = state, Err = the error text the
//	                  operator also returns
//	op_start          exec     the driver started an operator
//	op_finish         exec     the operator finished (post-EOS flush done)
//	punct_discard     core     a punctuation was consumed and ignored (XJoin, core.NewXJoin: all of
//	                  them; PJoin: an empty one). Side = port. Per side, with punct_arrive: PunctsIn
//	closed_drop       core     a tuple dropped against a retired key (no lifecycle to charge): Side = its
//	                  state, N = 1 on the fly / M = 1 from the disk portion / both 0 parked instead
//	                  (disk portion pending), B = bytes. Σ N with punct_drop_fly: DroppedOnFly;
//	                  Σ M with punct_purge_*: Purged
//
// # Sampling and overhead
//
// Punctuation, pass and point spans are never sampled: they are rare
// relative to tuples and the reconciliation identities need every one.
// Tuple-granularity records follow the Sampler: a tuple is traced iff
// its source admitted it, so tuple-side cost is bounded by the sample
// rate (the simulated drive of `pjoinbench -trace` admits every tuple).
// A nil handle or disabled tracer must cost one branch and ZERO
// allocations on hot paths (guarded by AllocsPerRun tests); spans are
// plain value structs.
package span

import (
	"sync/atomic"

	"pjoin/internal/stream"
)

// Kind discriminates span records; see the package doc's kind table.
type Kind uint8

const (
	KindPunctArrive Kind = iota
	KindPunctPurgeMem
	KindPunctDropFly
	KindPunctPurgeDisk
	KindPunctDefer
	KindPunctEmit
	KindPunctEOSClose

	KindPassStart
	KindPassChunk
	KindPassIO
	KindPassEnd

	KindTupleIngest
	KindTupleCut
	KindTupleDeliver
	KindTupleProbe
	KindTupleResult

	KindPurgeRun
	KindRelocate
	KindSpillError
	KindOpStart
	KindOpFinish
	KindPunctDiscard
	KindClosedDrop

	numKinds = int(KindClosedDrop) + 1
)

// ResultCap bounds KindTupleResult spans per probe burst (one tuple's
// memory probe, or one disk-pass step): a hot key can match thousands of
// partners, and a span per match is the one place span volume scales
// with output rather than input (a workload like benchmark/'s
// fanout_sat, 26 results per input, traced in full is where that
// bites). Result spans are latency samples.
const ResultCap = 4

var kindNames = [numKinds]string{
	"punct_arrive", "punct_purge_mem", "punct_drop_fly", "punct_purge_disk",
	"punct_defer", "punct_emit", "punct_eos_close",
	"pass_start", "pass_chunk", "pass_io", "pass_end",
	"tuple_ingest", "tuple_cut", "tuple_deliver", "tuple_probe", "tuple_result",
	"purge_run", "relocate", "spill_error", "op_start", "op_finish", "punct_discard", "closed_drop",
}

// String returns the kind's wire name (the "sp" field of the JSONL sink).
func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind is the inverse of String. ok is false for unknown names.
func ParseKind(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// NumKinds returns the size of the taxonomy (for per-kind counters).
func NumKinds() int { return numKinds }

// IsPunct reports whether k belongs to a punctuation lifecycle.
func (k Kind) IsPunct() bool { return k <= KindPunctEOSClose }

// IsPass reports whether k belongs to a disk-pass trace.
func (k Kind) IsPass() bool { return k >= KindPassStart && k <= KindPassEnd }

// IsTuple reports whether k belongs to a sampled-tuple trace.
func (k Kind) IsTuple() bool { return k >= KindTupleIngest && k <= KindTupleResult }

// IsPoint reports whether k is a point kind: Trace 0, no lifecycle.
func (k Kind) IsPoint() bool { return k >= KindPurgeRun && int(k) < numKinds }

// FamilyCounts sums per-kind counts (indexed by Kind; short or nil
// slices read as zero) into the four families.
func FamilyCounts(counts []int64) (punct, pass, tuple, point int64) {
	for i, c := range counts {
		switch k := Kind(i); {
		case k.IsPunct():
			punct += c
		case k.IsPass():
			pass += c
		case k.IsTuple():
			tuple += c
		case k.IsPoint():
			point += c
		}
	}
	return
}

// Span is one trace record. At is the virtual timestamp of the event
// (stream time under the simulator, wall-clock offset under the live
// executor — whichever clock stamped the items the operator processed);
// Wall is the emitting process's wall clock in Unix nanoseconds, so
// purge wall time and the order of spans from different operators
// survive into offline analysis.
type Span struct {
	ID    uint64 // process-unique span ID
	Trace uint64 // the punctuation/tuple/pass trace this span belongs to; 0 for point kinds
	Kind  Kind
	At    stream.Time
	Wall  int64
	Op    string // operator instance name
	Side  int8   // input side / port, -1 when not applicable
	N     int64  // kind-specific count (see the kind table)
	M     int64  // kind-specific count (see the kind table)
	B     int64  // bytes
	D     int64  // duration in nanoseconds
	Err   string // error text, spill_error only
}

var idCounter atomic.Uint64

// NewID returns a process-unique, non-zero ID. Safe for concurrent use
// from any number of operators; IDs are dense but carry no ordering
// meaning beyond uniqueness.
//
//pjoin:hotpath
func NewID() uint64 { return idCounter.Add(1) }

// Tracer receives spans. Implementations must be safe for concurrent
// use: every operator of a pipeline and the executor emit.
type Tracer interface {
	// Enabled reports whether Emit does anything; instrumentation skips
	// span construction entirely when false.
	Enabled() bool
	// Emit records one span.
	Emit(Span)
}

type nopTracer struct{}

func (nopTracer) Enabled() bool { return false }
func (nopTracer) Emit(Span)     {}

// Nop is the no-op default Tracer.
var Nop Tracer = nopTracer{}
