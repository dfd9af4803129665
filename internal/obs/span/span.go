// Package span is the provenance layer of the obs stack: causally
// linked spans with process-unique IDs that follow (a) every
// punctuation through its lifecycle — arrival, each memory/disk purge
// step, deferred propagation, final emit — with per-span tuples-dropped
// and bytes-reclaimed attribution, (b) sampled tuples through
// ingest → edge batch → operator delivery → probe → result emit, and
// (c) disk-join passes, so spill/cache I/O is attributed to the pass
// that caused it.
//
// The flat counters and histograms of PRs 2/4 say *how much* state was
// purged and *how long* results took; spans say *which punctuation*
// purged *what* and *where* a tuple's latency went. `cmd/pjointrace`
// reads the JSONL output offline and reconstructs lifecycles.
//
// # Trace model
//
// Every span carries a Trace ID grouping it with its cause:
//
//   - A punctuation trace is allocated when the punctuation first
//     enters the join graph (the sharded router, else the join core)
//     and rides stream.Item.Span across operator edges, so shard-local
//     spans from all shards group under the one trace. Every purge
//     span attributes its freed tuples to the earliest-arrived
//     matching punctuation — the same entry the purge logic resolves.
//   - A tuple trace is allocated by the source-side sampler and rides
//     stream.Tuple.Span; Tuple.Join propagates it to result tuples.
//   - A pass trace is allocated per disk-join pass and groups its
//     start/chunk/io/end spans.
//
// # Overhead budget
//
// The conventions of package obs apply: a nil handle or disabled
// tracer must cost one branch and ZERO allocations on hot paths
// (guarded by AllocsPerRun tests), spans are plain value structs, and
// tuple-side cost is bounded by the Sampler. Punctuation spans are not
// sampled — punctuations are rare relative to tuples, and the
// reconciliation guarantees (Σ purge-span drops == Metrics.Purged)
// need every one.
package span

import (
	"sync/atomic"

	"pjoin/internal/stream"
)

// Kind discriminates span records.
type Kind uint8

// The span taxonomy. N/M/B/D carry kind-specific payloads, documented
// per kind; B is always bytes, D always a duration in nanoseconds.
const (
	// KindPunctArrive: a punctuation entered an operator. Side = input
	// side, N = the PID the punctuation set assigned. The sharded
	// router also emits one (Shard = -1, N = 0) when it allocates the
	// trace, before broadcasting to shards.
	KindPunctArrive Kind = iota
	// KindPunctPurgeMem: one punctuation's share of one memory-purge
	// run. Side = victim state, N = tuples freed (counted in
	// Metrics.Purged), M = tuples parked to the purge buffer for a
	// later disk pass, B = bytes reclaimed by the freed tuples,
	// D = wall time of the whole purge run (shared by the run's spans).
	KindPunctPurgeMem
	// KindPunctDropFly: a tuple was dropped on the fly (§4.3). Side =
	// the tuple's port, N = 1 if dropped immediately, M = 1 if parked
	// to the purge buffer instead (disk portion pending), B = bytes.
	KindPunctDropFly
	// KindPunctPurgeDisk: one tuple dropped from the disk portion
	// during a pass, attributed to the punctuation in force at bucket
	// open. Side = victim state, N = 1, B = bytes.
	KindPunctPurgeDisk
	// KindPunctDefer: propagation of a ready punctuation was deferred.
	// Side = punctuation's input side, N = PID, M = reason: 1 = a disk
	// pass is in flight, 2 = the punctuation's own disk purge is
	// pending.
	KindPunctDefer
	// KindPunctEmit: the punctuation was released downstream — the
	// terminal span of a healthy lifecycle. Side = input side, N = PID,
	// D = propagation delay in stream time (emit At − arrival At). The
	// countdown merger of the sharded join emits the join-wide terminal
	// span with Shard = -1 after the last shard propagates; shard-local
	// emits carry their shard index.
	KindPunctEmit
	// KindPunctEOSClose: the run ended (Finish) while the punctuation
	// had not propagated; the trace is closed administratively so no
	// lifecycle dangles. Side = input side, N = PID.
	KindPunctEOSClose

	// KindPassStart: a disk-join pass began. N = 1 for a budgeted
	// (resumable) pass, 0 for one run to completion.
	KindPassStart
	// KindPassChunk: one step of a pass. N = candidate
	// pairs examined this step, M = results produced this step,
	// B = spill bytes read this step (both sides), D = step wall ns.
	KindPassChunk
	// KindPassIO: the pass's spill/cache traffic, emitted once at pass
	// end. N = read ops + chunk reads, M = spill-cache hits during the
	// pass, B = bytes read from the spill stores (post-cache).
	KindPassIO
	// KindPassEnd: the pass completed. N = candidate pairs examined,
	// M = results produced, B = bytes read total, D = pass wall ns
	// (for a chunked pass: from first step to last, including time the
	// event loop spent elsewhere between pumps).
	KindPassEnd

	// KindTupleIngest: a source admitted a sampled tuple. Side = -1 (a
	// source does not know its consumer's port; the deliver span does).
	KindTupleIngest
	// KindTupleCut: the batch holding a sampled tuple was cut and sent
	// on an edge. N = batch length, M = 1 if the cut was forced by a
	// punctuation/EOS/flush rather than the batch filling.
	KindTupleCut
	// KindTupleDeliver: the operator driver delivered the sampled tuple
	// (restamped). Side = port. The gap from ingest/cut to deliver is
	// the queue + batch-linger component of result latency.
	KindTupleDeliver
	// KindTupleProbe: the sampled tuple's probe completed. Side =
	// probing side, N = matches emitted, M = tuples examined.
	KindTupleProbe
	// KindTupleResult: a join result descending from the sampled tuple
	// was emitted. D = result latency (emit At − result tuple Ts). At
	// most ResultCap result spans are emitted per probe burst: a hot key
	// can match thousands of partners, and a span per match is the one
	// place span volume scales with output rather than input (the bench7
	// overhead budget is where that bites). The probe span's N still
	// carries the exact match count; result spans are latency samples.
	KindTupleResult

	numKinds = int(KindTupleResult) + 1
)

// ResultCap bounds KindTupleResult spans per probe burst (one tuple's
// memory probe, or one disk-pass step). See the KindTupleResult docs.
const ResultCap = 4

var kindNames = [numKinds]string{
	"punct_arrive", "punct_purge_mem", "punct_drop_fly", "punct_purge_disk",
	"punct_defer", "punct_emit", "punct_eos_close",
	"pass_start", "pass_chunk", "pass_io", "pass_end",
	"tuple_ingest", "tuple_cut", "tuple_deliver", "tuple_probe", "tuple_result",
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
func (k Kind) IsTuple() bool { return k >= KindTupleIngest }

// Span is one provenance record. At is the virtual timestamp of the
// event (stream time under the simulator, wall-clock offset under the
// live executor — the same clock as obs.Event.At); Wall is the
// emitting process's wall clock in Unix nanoseconds, so purge wall
// time and cross-shard ordering survive into offline analysis.
type Span struct {
	ID    uint64 // process-unique span ID
	Trace uint64 // the punctuation/tuple/pass trace this span belongs to
	Kind  Kind
	At    stream.Time
	Wall  int64
	Op    string // operator instance name
	Shard int32  // shard index, -1 when unsharded / join-wide
	Side  int8   // input side / port, -1 when not applicable
	N     int64  // kind-specific count (see Kind docs)
	M     int64  // kind-specific count (see Kind docs)
	B     int64  // bytes (see Kind docs)
	D     int64  // duration in nanoseconds (see Kind docs)
}

var idCounter atomic.Uint64

// NewID returns a process-unique, non-zero ID. Safe for concurrent use
// from any number of shards; IDs are dense but carry no ordering
// meaning beyond uniqueness.
//
//pjoin:hotpath
func NewID() uint64 { return idCounter.Add(1) }

// Tracer receives spans. Implementations must be safe for concurrent
// use: shards, the router, the merger and the executor all emit.
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
