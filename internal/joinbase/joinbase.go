// Package joinbase holds the machinery shared by the binary hash joins
// (PJoin and the XJoin baseline): the symmetric two-state layout, memory
// probing, memory-overflow relocation, and the duplicate-free disk pass
// that finishes the joins left over by state relocation.
//
// # Duplicate avoidance
//
// Every stored tuple carries its memory-residence interval [ATS, DTS):
// ATS is the arrival time, DTS the moment it left the memory-resident
// portion (spill to disk, or move to the purge buffer); DTS is InMemory
// while resident. The memory join handles exactly the pairs whose
// residence intervals overlap — when the later tuple arrived, the
// earlier one was memory-resident and got probed. Every other matching
// pair must be produced by a disk pass, exactly once.
//
// A pair (a, b) is "reachable" by a disk pass at time T when one side
// had already departed memory and the other had arrived:
//
//	reachable(a,b,T) = (a.DTS <= T && b.ATS <= T) || (b.DTS <= T && a.ATS <= T)
//
// A disk pass over a bucket at time T joins the pairs that are reachable
// now but were not reachable at the bucket's previous pass, skipping
// overlapping pairs (already joined in memory). Since reachability is
// monotone in T, each non-overlapping pair is emitted by exactly the
// first pass at which it becomes reachable. A final pass at end-of-
// stream reaches everything left. Such a pair always has a member that
// arrived or left memory since the previous pass, which is what lets a
// pass decode and pair only those tuples and their same-key partners
// (see ChunkPass).
package joinbase

import (
	"fmt"

	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/store"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// EmitFunc receives one join result (the A-side tuple's values followed
// by the B-side tuple's values; Ts the later partner's arrival).
type EmitFunc func(*stream.Tuple) error

// PairFunc receives one join result unbuilt, as the A-side tuple, the
// B-side tuple and the result's Ts, for an output that builds results
// itself (an op.JoinEmitter: see Base.EmitPair).
type PairFunc func(a, c *stream.Tuple, ts stream.Time) error

// Metrics counts the work a join performed; the simulator charges costs
// from these and the benches report them.
type Metrics struct {
	TuplesIn      [2]int64 // data tuples consumed per side
	PunctsIn      [2]int64 // punctuations consumed per side
	TuplesOut     int64    // join results emitted
	PunctsOut     int64    // punctuations propagated
	Examined      int64    // stored tuples examined by memory probes
	DiskExamined  int64    // same-key candidate pairs visited by disk passes (unequal-key pairs are never looked at: see keyIndex)
	DiskDecoded   int64    // spill records disk passes decoded in full, for a pair they emitted or for IndexDisk; the others were parsed to their key (see ChunkPass)
	DiskJoins     int64    // results produced by disk passes
	Relocations   int64    // buckets spilled
	SpilledTuples int64    // tuples moved to disk
	DiskPasses    int64    // disk passes executed
	DiskChunks    int64    // bounded steps executed by incremental disk passes
	Purged        int64    // tuples purged from the state (PJoin)
	PurgeScanned  int64    // tuples examined by purge scans (PJoin)
	PurgeRuns     int64    // purge component invocations (PJoin)
	DroppedOnFly  int64    // tuples never inserted thanks to punctuations
	IndexScanned  int64    // tuples examined by punctuation index builds
	Batches       int64    // ProcessBatch invocations (0 when driven through Process directly)

	// The table-walk price list: what the same operations would have
	// examined in the paper's structure — a chained hash bucket walked
	// end to end by every probe, a purge and an index build that walk the
	// whole table — counted from occupancies the state already keeps.
	// TableWalk prices a run by them.
	ProbeWalk int64 // memory occupancy of the probed bucket, summed over memory probes
	PurgeWalk int64 // memory-resident tuples of the victim state, summed over purge runs (PJoin)
	IndexWalk int64 // memory + purge-buffer tuples of the side, summed over index builds, plus the tuples indexed one at a time (relocation, disk passes) (PJoin)
}

// TableWalk returns m with the three table-walk counters exchanged for
// Examined, PurgeScanned and IndexScanned, so that whatever reads those
// — sim.CostModel, the experiment reports — prices and prints the
// paper's regime instead of the key-grouped index's.
func (m Metrics) TableWalk() Metrics {
	m.Examined, m.ProbeWalk = m.ProbeWalk, m.Examined
	m.PurgeScanned, m.PurgeWalk = m.PurgeWalk, m.PurgeScanned
	m.IndexScanned, m.IndexWalk = m.IndexWalk, m.IndexScanned
	return m
}

// Base is the symmetric two-state core of a binary equi-join.
type Base struct {
	States [2]*store.State
	Out    *stream.Schema
	Emit   EmitFunc
	M      Metrics

	// EmitPair, when the owner sets it, receives every result in place of
	// Emit, as the pair it joins: the owner's output builds the result
	// where it is going, and Base builds none.
	EmitPair PairFunc

	// Obs is the owning operator's instrumentation handle; nil (the
	// default) disables observability. Base records the spans it owns:
	// spill relocations, disk-join passes, and spill-store failures.
	Obs *obs.Instr

	// ResultSpans is how many more tuple_result spans the owner's Emit may
	// record for the current burst: ProbeOppositeAt and every disk-pass step
	// reset it to span.ResultCap, the owner's Emit counts it down.
	ResultSpans int

	lastPass []stream.Time // per bucket; both states share the bucket space

	// probeCache and arrival are per-probe scratch reused across
	// ProbeOppositeAt calls so the memory-join hot path performs no
	// allocation of its own (result construction draws on the result
	// slab below). probeCache[s] memoizes the last probe
	// of States[s] (seq-guarded, see store.MemProbe), which turns a run
	// of same-key probes against an unchanged state — the common shape
	// inside a batch — into one hash + group lookup. Base is
	// single-goroutine by contract (operators are serialised by their
	// driver), so one scratch set per Base suffices.
	probeCache [2]store.MemProbe
	arrival    store.StoredTuple

	// res is where the results handed to Emit are built: the join's own
	// slab, carved chunk by chunk and never rewound, so a result lives as
	// long as its consumer keeps it.
	res stream.ResultSlab
}

// New builds a Base over two freshly created states with the same bucket
// count (required: a join key must land in the same bucket index on both
// sides).
func New(a, b *store.State, out *stream.Schema, emit EmitFunc) (*Base, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("joinbase: nil state")
	}
	if a.NumBuckets() != b.NumBuckets() {
		return nil, fmt.Errorf("joinbase: bucket counts differ: %d vs %d", a.NumBuckets(), b.NumBuckets())
	}
	if emit == nil {
		return nil, fmt.Errorf("joinbase: nil emit function")
	}
	return &Base{
		States:   [2]*store.State{a, b},
		Out:      out,
		Emit:     emit,
		lastPass: make([]stream.Time, a.NumBuckets()),
	}, nil
}

// emitPair emits the result for the pair, putting the side-0 tuple's
// values first regardless of which side is "a" in the caller, at the
// later partner's arrival. It is the one place results are built: the
// memory probe and the disk pass come through here.
//
//pjoin:hotpath
func (b *Base) emitPair(sideOfX int, x, y *store.StoredTuple) error {
	if sideOfX != 0 {
		x, y = y, x
	}
	b.M.TuplesOut++
	ts := max(x.ATS, y.ATS)
	if b.EmitPair != nil {
		return b.EmitPair(x.T, y.T, ts)
	}
	return b.Emit(b.res.Join(x.T, y.T, ts))
}

// ProbeOpposite is ProbeOppositeAt at the tuple's own Ts, for callers
// whose tuples carry their arrival time.
func (b *Base) ProbeOpposite(s int, t *stream.Tuple) (int, error) {
	return b.ProbeOppositeAt(s, t, t.Ts)
}

// ProbeOppositeAt joins a new arrival on side s, at time ats, against the
// opposite state's memory-resident portion, emitting all results. It
// returns the number of matches produced. Probes are memoized through the
// opposite state's seq-guarded MemProbe: an identical-key probe with no
// state mutation in between (a hot-key run inside a batch) is answered
// from the cache, with the examined count a fresh probe would have
// reported.
//
// The probe machinery itself is zero-alloc, and result construction
// (emitPair) allocates only when a result chunk runs out (see
// stream.ResultSlab), or not at all when the output builds the results.
//
//pjoin:hotpath
func (b *Base) ProbeOppositeAt(s int, t *stream.Tuple, ats stream.Time) (int, error) {
	b.ResultSpans = span.ResultCap
	opp := b.States[1-s]
	key := b.States[s].Key(t)
	matches, examined := opp.ProbeMemCached(key, &b.probeCache[1-s])
	b.M.Examined += int64(examined)
	b.M.ProbeWalk += int64(b.probeCache[1-s].Walked())
	b.arrival = store.StoredTuple{T: t, ATS: ats, DTS: store.InMemory}
	for _, m := range matches {
		if err := b.emitPair(1-s, m, &b.arrival); err != nil {
			return 0, err
		}
	}
	return len(matches), nil
}

// Relocate implements the memory-overflow resolution (paper §3.3,
// following XJoin): while the combined memory-resident size is at or
// above memBytes, spill the largest bucket of the larger state to disk.
// beforeSpill, if non-nil, is invoked with (side, bucket) before each
// spill so the caller can index the bucket's tuples first (PJoin needs
// disk-resident tuples to carry their pids).
func (b *Base) Relocate(now stream.Time, memBytes int64, beforeSpill func(side, bucket int) error) error {
	if memBytes <= 0 {
		return nil
	}
	for b.States[0].MemBytes()+b.States[1].MemBytes() >= memBytes {
		side := 0
		if b.States[1].MemBytes() > b.States[0].MemBytes() {
			side = 1
		}
		victim := b.States[side].LargestMemBucket()
		if victim < 0 {
			// Fall back to the other side before giving up.
			side = 1 - side
			victim = b.States[side].LargestMemBucket()
			if victim < 0 {
				return nil // nothing resident anywhere
			}
		}
		if beforeSpill != nil {
			if err := beforeSpill(side, victim); err != nil {
				return err
			}
		}
		n, err := b.States[side].SpillBucket(victim, now)
		if err != nil {
			b.Obs.SpillError(now, side, err)
			return err
		}
		b.M.Relocations++
		b.M.SpilledTuples += int64(n)
		b.Obs.Span(span.KindRelocate, 0, now, side, int64(n), int64(victim), 0, 0)
	}
	return nil
}

// PassHooks customise a disk pass. All fields may be nil.
type PassHooks struct {
	// OnPassStart is called once when a pass starts, before its first
	// bucket opens: what must be known about the moment the pass began
	// (PJoin's disk-pending bound) is captured here.
	OnPassStart func()
	// OnBucketOpen is called when the pass opens a bucket for
	// processing, before any of its tuples are read or joined. An
	// incremental pass interleaves with arrivals, so hooks that consult
	// operator state which can move mid-pass (PJoin's disk purge
	// consults the punctuation sets) capture their decision basis here:
	// a bucket's drops may only be justified by punctuations already
	// present at its open, because later punctuations' left-over joins
	// against tuples parked after the bucket's snapshot belong to the
	// NEXT pass — dropping on their account would lose those pairs.
	OnBucketOpen func()
	// IndexDisk is called, as the pass reads them, for the disk-resident
	// tuples without a pid, decoded in full, letting PJoin assign pids to
	// tuples that were spilled before a matching punctuation arrived.
	IndexDisk func(side int, s *store.StoredTuple)
	// DropDisk reports whether a disk-resident tuple, given by its join
	// key and the length of its spill record (what the partition loses if
	// it goes), should be purged instead of written back after the pass
	// (PJoin's disk-side purge).
	DropDisk func(side int, key value.Value, size int) bool
	// OnDiscard is called for every tuple that leaves the state during
	// the pass: purge-buffer tuples (always discarded) and disk tuples
	// for which DropDisk returned true — with a nil T when the pass did
	// not decode them. PJoin decrements punctuation counts here.
	OnDiscard func(side int, s *store.StoredTuple)
}

// NeedsPass reports whether a disk pass would do anything: some bucket
// has disk-resident data or a non-empty purge buffer. Answered from the
// states' running accounting — the pass driver asks once per input item.
func (b *Base) NeedsPass() bool {
	for _, st := range b.States {
		if st.AnyDisk() || st.Stats().PurgeTuples > 0 {
			return true
		}
	}
	return false
}

// reachable reports whether pair (x, y) was reachable by a disk pass at
// time T: one tuple had departed memory and the other had arrived.
func reachable(x, y *store.StoredTuple, t stream.Time) bool {
	return (x.DTS <= t && y.ATS <= t) || (y.DTS <= t && x.ATS <= t)
}
