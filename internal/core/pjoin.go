// Package core implements PJoin, the punctuation-exploiting stream join
// operator of "Joining Punctuated Streams" (EDBT 2004). PJoin is a
// binary hash-based equi-join that uses punctuations embedded in its
// input streams to purge no-longer-useful tuples from its state (purge
// rules, paper eq. 1) and to propagate punctuations to downstream
// operators (propagation rules, eq. 2 / Theorem 1).
//
// The operator is assembled from the paper's six components — memory
// join, disk join, state relocation, state purge, punctuation index
// build, and punctuation propagation — wired together as in §3.6: the
// memory join is the processing path; a monitor tracks the runtime
// parameters against their thresholds, and each event it raises runs the
// other components its row of the event table names (paper Table 1).
//
// The paper's comparison baseline, XJoin (Urhan & Franklin), is the same
// operator without the punctuation components: NewXJoin builds it.
package core

import (
	"fmt"
	"sort"
	"time"

	"pjoin/internal/joinbase"
	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/store"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// Config configures a PJoin instance.
type Config struct {
	// SchemaA and SchemaB describe the two inputs (ports 0 and 1).
	SchemaA, SchemaB *stream.Schema
	// AttrA and AttrB are the join attribute positions in each schema.
	// The attributes must have identical kinds.
	AttrA, AttrB int
	// OutName names the result schema (default "join").
	OutName string
	// NumBuckets is the hash table size per state (default 64).
	NumBuckets int
	// SpillA and SpillB provide secondary storage for the two states
	// (default: fresh in-memory simulated disks).
	SpillA, SpillB store.SpillStore
	// Thresholds are the monitor's runtime parameters. The zero value
	// disables relocation, disk-join activation and push-mode
	// propagation; a zero Purge means eager purge (threshold 1), and a
	// negative one is rejected: the purge always runs.
	Thresholds Thresholds
	// DiskChunkBytes is the disk join's step budget (joinbase.PassDriver).
	// When positive, disk joins run as a resumable background task that
	// reads spill data in chunks of at most this many bytes and yields to
	// the hot path after every chunk; Process steps the task once per
	// input item, so result latency is bounded by one chunk instead of
	// one full pass. 0 runs each pass to completion inside the call that
	// schedules it (DiskJoinActivate, propagation, StreamEmpty, Finish) —
	// the same steps, unbounded and drained.
	DiskChunkBytes int
	// EagerIndex selects eager punctuation index building (build on
	// every punctuation arrival) instead of the default lazy building
	// (build only when propagation is invoked). §3.5.
	EagerIndex bool
	// DisablePropagation turns the propagation machinery off entirely;
	// punctuations still purge state but are never forwarded. Most of
	// the paper's experiments run in this mode.
	DisablePropagation bool
	// VerifyPunctuations enables checking the paper's nested-or-disjoint
	// assumption on the join attribute and that no tuple arrives after a
	// punctuation it matches (stream integrity).
	VerifyPunctuations bool
	// Instr is the observability handle (tracing + live metrics). nil
	// disables observability entirely; the hot paths then pay a single
	// nil check and zero allocations (see internal/obs).
	Instr *obs.Instr
	// Window, when positive, adds time-based sliding-window semantics on
	// top of the punctuation machinery (paper §6, "extension for
	// supporting sliding window"): a pair joins only if the older
	// tuple's timestamp is within Window of the newer one's, and expired
	// tuples are invalidated during probing — bucket order is arrival
	// order, so invalidation stops at the first in-window tuple. Window
	// mode is memory-only: it cannot be combined with a memory threshold
	// (relocation), since the window already bounds the state.
	Window stream.Time
}

func (c *Config) setDefaults() {
	if c.OutName == "" {
		c.OutName = "join"
	}
	if c.NumBuckets == 0 {
		c.NumBuckets = 64
	}
	if c.SpillA == nil {
		c.SpillA = store.NewMemSpill()
	}
	if c.SpillB == nil {
		c.SpillB = store.NewMemSpill()
	}
	if c.Thresholds.Purge == 0 {
		c.Thresholds.Purge = 1 // eager purge is the default strategy
	}
}

// PJoin is the punctuation-exploiting stream join operator. It
// implements op.Operator with two input ports: port 0 = stream A,
// port 1 = stream B.
type PJoin struct {
	cfg   Config
	base  *joinbase.Base
	out   op.Emitter
	table table
	mon   monitor
	psets [2]*punct.Set
	attrs [2]int
	outSc *stream.Schema

	// diskPending, per side: punctuation entries whose index build ran
	// while that side's state had disk-resident tuples; their counts may
	// under-count until a disk pass indexes the disk portion, so they
	// must not propagate before then.
	diskPending [2]map[punct.PID]bool

	// purgeMark, per victim side: the largest pid of the opposite
	// punctuation set already applied by a purge run. Drop-on-the-fly
	// keeps every tuple matching an applied punctuation out of the
	// state, so later runs need only the entries above the mark (see
	// purgeState).
	purgeMark [2]punct.PID

	// disk schedules, times and traces the disk join: Process pumps it
	// once per input item and OnIdle once per idle tick, so under a chunk
	// budget left-over joins complete in the background.
	disk *joinbase.PassDriver
	// propPending records that a propagation release arrived while a
	// pass was in flight; the pass's completion re-runs it (passDone).
	propPending bool
	// dropBound, per side: the largest pid in that side's punctuation
	// set when the current pass bucket opened. Disk purge only drops on
	// entries at or below the bound — see passHooks.
	dropBound [2]punct.PID
	// pendBound, per side: the largest pid when the current pass
	// STARTED. Only disk-pending marks at or below it clear on the
	// pass's completion — an entry index-built mid-pass may have missed
	// disk tuples in buckets the pass had already read, so its count
	// stays untrusted until the next pass completes.
	pendBound [2]punct.PID

	obs *obs.Instr
	// lat holds the operator's latency histograms: result latency (one
	// sample per emitted result), punctuation propagation delay (one per
	// propagated punctuation) and purge-pass duration (one per purge
	// run). Always allocated — recording is lock-free atomic adds, cheap
	// enough to stay on unconditionally (see internal/obs/hist).
	lat *obs.Lat
	// gauges is the snapshot publishGauges fills when the handle carries
	// a gauge board.
	gauges obs.Gauges
	// lastPropTs is the arrival timestamp of the newest punctuation whose
	// propagation has been released downstream; PunctLag measures how far
	// the inputs have run ahead of it.
	lastPropTs stream.Time

	// kept holds the copies of borrowed arrivals the state retains (see
	// Process).
	kept stream.ResultSlab

	// idxGroup is indexKey's scratch for one key group.
	idxGroup []*store.StoredTuple

	now stream.Time
	// nextArr is the least Ts the next tuple or punctuation may keep
	// (Process).
	nextArr  stream.Time
	eos      [2]bool
	finished bool

	// xjoin makes this instance the XJoin baseline (NewXJoin): every
	// punctuation is counted and discarded on arrival.
	xjoin bool
}

var (
	_ op.Operator       = (*PJoin)(nil)
	_ op.BatchProcessor = (*PJoin)(nil)
)

// New builds a PJoin with its event table configured from cfg (paper
// Table 1) and bound to out for results and propagated punctuations.
func New(cfg Config, out op.Emitter) (*PJoin, error) { return newJoin(cfg, out, false) }

// NewXJoin builds the paper's baseline, XJoin (Urhan & Franklin): a
// symmetric hash join with memory-overflow relocation, reactive
// background disk joins and a final clean-up pass — PJoin's memory join,
// state relocation and disk join without its punctuation components.
// Every punctuation is counted and discarded, so nothing is purged,
// dropped on the fly, indexed or propagated, and the state grows with the
// streams. Window, VerifyPunctuations and EagerIndex belong to those
// components and are rejected; propagation is off.
func NewXJoin(cfg Config, out op.Emitter) (*PJoin, error) {
	switch {
	case cfg.Window != 0:
		return nil, fmt.Errorf("core: xjoin has no window")
	case cfg.VerifyPunctuations:
		return nil, fmt.Errorf("core: xjoin verifies no punctuations")
	case cfg.EagerIndex:
		return nil, fmt.Errorf("core: xjoin builds no punctuation index")
	}
	cfg.DisablePropagation = true
	return newJoin(cfg, out, true)
}

func newJoin(cfg Config, out op.Emitter, xjoin bool) (*PJoin, error) {
	if cfg.SchemaA == nil || cfg.SchemaB == nil {
		return nil, fmt.Errorf("core: a join needs both input schemas")
	}
	if out == nil {
		return nil, fmt.Errorf("core: a join needs an output emitter")
	}
	if cfg.AttrA < 0 || cfg.AttrA >= cfg.SchemaA.Width() {
		return nil, fmt.Errorf("core: join attribute A %d out of range for %s", cfg.AttrA, cfg.SchemaA)
	}
	if cfg.AttrB < 0 || cfg.AttrB >= cfg.SchemaB.Width() {
		return nil, fmt.Errorf("core: join attribute B %d out of range for %s", cfg.AttrB, cfg.SchemaB)
	}
	ka := cfg.SchemaA.FieldAt(cfg.AttrA).Kind
	kb := cfg.SchemaB.FieldAt(cfg.AttrB).Kind
	if ka != kb {
		return nil, fmt.Errorf("core: join attribute kinds differ: %s vs %s", ka, kb)
	}
	if cfg.Thresholds.Purge < 0 {
		return nil, fmt.Errorf("core: negative purge threshold %d", cfg.Thresholds.Purge)
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("core: negative window %d", cfg.Window)
	}
	if cfg.Window > 0 && cfg.Thresholds.MemoryBytes > 0 {
		return nil, fmt.Errorf("core: window mode is memory-only; clear Thresholds.MemoryBytes")
	}
	cfg.setDefaults()

	outSc, err := cfg.SchemaA.Concat(cfg.OutName, cfg.SchemaB)
	if err != nil {
		return nil, err
	}
	stA, err := store.NewState(cfg.SchemaA.Name(), cfg.AttrA, cfg.NumBuckets, cfg.SpillA)
	if err != nil {
		return nil, err
	}
	stB, err := store.NewState(cfg.SchemaB.Name(), cfg.AttrB, cfg.NumBuckets, cfg.SpillB)
	if err != nil {
		return nil, err
	}

	j := &PJoin{
		cfg:   cfg,
		out:   out,
		attrs: [2]int{cfg.AttrA, cfg.AttrB},
		outSc: outSc,
		diskPending: [2]map[punct.PID]bool{
			make(map[punct.PID]bool), make(map[punct.PID]bool),
		},
		lat:   obs.NewLat(),
		xjoin: xjoin,
	}
	j.base, err = joinbase.New(stA, stB, outSc, func(t *stream.Tuple) error {
		j.noteResult(t.Ts, t.Span)
		return out.Emit(stream.TupleItem(t))
	})
	if err != nil {
		return nil, err
	}
	if je, ok := out.(op.JoinEmitter); ok {
		// The output builds results itself (an exec edge, in the batch it
		// is filling): hand it the pair and account for the result it
		// will make.
		j.base.EmitPair = func(a, c *stream.Tuple, ts stream.Time) error {
			j.noteResult(ts, stream.JoinSpan(a, c))
			return je.EmitJoin(a, c, ts)
		}
	}
	// A released punctuation stays in force until it owes nothing, then
	// retires into its set's closed keys (punct.Set.Applied). §3.5
	// removes it at once, and then a late opposite tuple it covers is
	// stored until EOS.
	for s, attr := range j.attrs {
		ps := punct.NewKeyedSet(attr, cfg.VerifyPunctuations)
		ps.NoRelease = cfg.DisablePropagation
		ps.OnRetire = func(e *punct.Entry) {
			if e.TraceID != 0 && !e.Propagated && j.obs.Enabled() {
				j.obs.Span(span.KindPunctEOSClose, e.TraceID, j.now, s, int64(e.PID), 0, 0, 0)
			}
		}
		j.psets[s] = ps
	}

	j.obs = cfg.Instr
	j.base.Obs = j.obs
	j.disk = joinbase.NewPassDriver(j.base, j.lat, cfg.DiskChunkBytes, j.passHooks(), j.passDone)
	j.table = newTable(&j.cfg, xjoin)
	j.mon = monitor{th: j.cfg.Thresholds}
	if b := j.obs.Board(); b != nil {
		// A first snapshot, so a run shorter than one tick has gauges.
		j.gauges.Op, j.gauges.Punct = j.obs.Op(), !xjoin
		if j.gauges.Op == "" {
			j.gauges.Op = j.Name()
		}
		j.publishGauges(b)
	}
	return j, nil
}

// noteResult records one emitted result, given the Ts and Span the
// result carries. A result's timestamp is the later partner's arrival
// (joinbase's emitPair), so now − ts is zero for a memory-probe result
// and the wait for the disk pass for a left-over one.
func (j *PJoin) noteResult(ts stream.Time, sp uint64) {
	j.lat.RecordResult(j.now, ts)
	if sp != 0 && j.base.ResultSpans > 0 && j.obs.Enabled() {
		j.base.ResultSpans--
		j.obs.Span(span.KindTupleResult, sp, j.now, -1, 0, 0, 0, int64(j.now-ts))
	}
}

// publishGauges fills the join's gauge snapshot and publishes a copy on
// b. It reads operator state, so it runs on the join's own goroutine:
// on its virtual-time tick (Process), at construction and at Finish.
func (j *PJoin) publishGauges(b *obs.Board) {
	a, c := j.base.States[0], j.base.States[1]
	sa, sc := a.Stats(), c.Stats()
	g := &j.gauges
	g.At = j.now
	g.MemBytesA, g.MemBytesB = a.MemBytes(), c.MemBytes()
	g.StateBytesA, g.StateBytesB = int64(a.RetainedBytes()), int64(c.RetainedBytes())
	g.DiskBytes = sa.DiskBytes + sc.DiskBytes
	g.StateTuples = int64(sa.TotalTuples() + sc.TotalTuples())
	g.BucketSkew = max(a.MemBucketSkew(), c.MemBucketSkew())
	g.MemGroups = int64(sa.MemGroups + sc.MemGroups)
	g.TuplesOut = j.base.M.TuplesOut
	g.TuplesIn = j.base.M.TuplesIn[0] + j.base.M.TuplesIn[1]
	if g.Punct {
		g.PunctLag = j.PunctLag()
		g.PunctSetA, g.PunctSetB = int64(setSize(j.psets[0])), int64(setSize(j.psets[1]))
		g.PunctsOut = j.base.M.PunctsOut
	}
	b.Publish(g)
}

// Latencies returns a snapshot of the operator's latency histograms.
// Safe to call from any goroutine while the operator runs (the
// histograms are atomic; see internal/obs/hist).
func (j *PJoin) Latencies() obs.LatSnapshot { return j.lat.Snapshot() }

// PunctLag returns how far the inputs have run ahead of the newest
// punctuation released downstream: newest input timestamp minus the
// emission timestamp of the last propagated punctuation. A steadily
// growing lag means downstream operators are starved of punctuations
// (propagation disabled, thresholds too lazy, or match counts stuck
// above zero).
func (j *PJoin) PunctLag() stream.Time { return j.now - j.lastPropTs }

// Name implements op.Operator.
func (j *PJoin) Name() string {
	if j.xjoin {
		return "xjoin"
	}
	return "pjoin"
}

// NumPorts implements op.Operator.
func (j *PJoin) NumPorts() int { return 2 }

// OutSchema implements op.Operator.
func (j *PJoin) OutSchema() *stream.Schema { return j.outSc }

// Table1 renders the join's event table as the paper's Table 1: one line
// per row, the event, its condition and the components it runs in order.
func (j *PJoin) Table1() string { return j.table.String() }

// Metrics returns the work counters accumulated so far.
func (j *PJoin) Metrics() joinbase.Metrics { return j.base.M }

// StateStats returns the size accounting of both states.
func (j *PJoin) StateStats() (a, b store.Stats) {
	return j.base.States[0].Stats(), j.base.States[1].Stats()
}

// StateTuples returns the total number of tuples currently held in the
// join state (both sides, memory + purge buffers + disk) — the metric
// the paper's memory-overhead charts plot.
func (j *PJoin) StateTuples() int {
	a, b := j.StateStats()
	return a.TotalTuples() + b.TotalTuples()
}

// PunctSetSizes returns what each side's punctuation set holds: the
// punctuations still owed something (tuples, a release, the opposite
// purge) plus the intervals the others' keys retired into.
func (j *PJoin) PunctSetSizes() (a, b int) {
	return setSize(j.psets[0]), setSize(j.psets[1])
}

func setSize(s *punct.Set) int { return s.Len() + s.ClosedLen() }

// Process implements op.Operator. Items on each port must have strictly
// increasing timestamps. Across ports a timestamp may repeat (op.Operator
// rule 1; a cascade hands a result on at its arrival's Ts), but the disk
// join's [ATS, DTS) cannot order two events at one timestamp: a tuple or
// punctuation at or below the previous arrival's Ts is stamped one past
// it.
//
// A tuple's arrival time is it.Ts, not the Ts its shared header carries
// (the executor restamps items and never tuples): the state stores the
// delivered tuple as it is and the arrival beside it
// (store.StoredTuple.ATS), which drives residence, window expiry and
// result timestamps. Only a borrowed tuple (an upstream join's result,
// built in the batch that delivers it) is copied first
// (stream.ResultSlab.Keep).
func (j *PJoin) Process(port int, it stream.Item, now stream.Time) error {
	if err := op.ValidatePort(j.Name(), port, 2); err != nil {
		return err
	}
	if j.finished {
		return fmt.Errorf("core: %s: Process after Finish", j.Name())
	}
	ts := it.Ts
	if it.Kind != stream.KindEOS {
		ts = maxTime(ts, j.nextArr)
		j.nextArr = ts + 1
	}
	j.now = maxTime(j.now, maxTime(now, ts))
	if b := j.obs.Board(); b.Due(j.now) {
		j.publishGauges(b)
	}
	switch it.Kind {
	case stream.KindTuple:
		if err := j.processTuple(port, j.kept.Keep(it).Tuple, ts); err != nil {
			return err
		}
		return j.disk.Pump(j.now)
	case stream.KindPunct:
		if err := j.processPunct(port, it.Punct, ts, it.Span); err != nil {
			return err
		}
		return j.disk.Pump(j.now)
	case stream.KindEOS:
		if j.eos[port] {
			return fmt.Errorf("core: %s: duplicate EOS on port %d", j.Name(), port)
		}
		j.eos[port] = true
		if j.eos[0] && j.eos[1] {
			return j.fire(streamEmpty, j.now, 0)
		}
		return nil
	default:
		return fmt.Errorf("core: %s: unknown item kind %v", j.Name(), it.Kind)
	}
}

// ProcessBatch implements op.BatchProcessor: one driver wakeup delivers
// a whole batch. Semantics are exactly per-item Process in order — the
// batch path exists so the driver amortizes its per-call overhead and
// so hot-key runs inside the batch hit the memoized probe (see
// joinbase.Base.ProbeOppositeAt), across batch boundaries too.
func (j *PJoin) ProcessBatch(port int, items []stream.Item, now stream.Time) error {
	j.base.M.Batches++
	j.lat.RecordBatchFill(len(items))
	for _, it := range items {
		if err := j.Process(port, it, it.Ts); err != nil {
			return err
		}
	}
	return nil
}

// processTuple is the memory join (§3.2) of tuple t arriving on side s at
// time ts: probe the opposite state's memory-resident portion, emit
// matches, then insert the tuple into its own state — unless the opposite
// punctuation set already rules out any future partner, in which case
// the tuple is dropped on the fly.
func (j *PJoin) processTuple(s int, t *stream.Tuple, ts stream.Time) error {
	j.base.M.TuplesIn[s]++
	if j.mon.tuple(ts) {
		if err := j.fire(propagateTimeExpire, ts, s); err != nil {
			return err
		}
	}
	key := t.Values[j.attrs[s]]

	if j.cfg.VerifyPunctuations && j.psets[s].SetMatchAttr(j.attrs[s], key) {
		return fmt.Errorf("core: pjoin: stream %d violates punctuation semantics: tuple %s matches an earlier punctuation",
			s, t)
	}

	// Sliding-window invalidation (§6): expire the out-of-window prefix
	// of both buckets this key touches before probing, so the probe only
	// sees in-window partners and the state stays bounded by the window.
	if j.cfg.Window > 0 && ts > j.cfg.Window {
		cutoff := ts - j.cfg.Window
		bucket := j.base.States[s].BucketOf(key)
		for side := 0; side < 2; side++ {
			for _, sd := range j.base.States[side].ExpireMemPrefix(bucket, cutoff) {
				j.discard(side, sd)
				j.base.States[side].Free(sd)
			}
		}
	}

	examBefore := j.base.M.Examined
	matches, err := j.base.ProbeOppositeAt(s, t, ts)
	if err != nil {
		return err
	}
	if t.Span != 0 && j.obs.Enabled() {
		j.obs.Span(span.KindTupleProbe, t.Span, ts, s,
			int64(matches), j.base.M.Examined-examBefore, 0, 0)
	}

	// Drop-on-the-fly (§4.3): the opposite punctuation set promises no
	// future opposite tuple matches this key, so the tuple need never
	// enter the state — unless the opposite state still has
	// disk-resident tuples in this bucket, which this tuple has not yet
	// joined against; then it parks in the purge buffer until the next
	// disk pass. FirstMatchAttr (what SetMatchAttr wraps) also resolves
	// the earliest punctuation promising the exhaustion — the one span
	// tracing attributes the drop to.
	if e := j.psets[1-s].FirstMatchAttr(j.attrs[1-s], key); e != nil {
		own := j.base.States[s]
		bucket := own.BucketOf(key)
		var dropped, park int64 = 1, 0
		if j.base.States[1-s].HasDisk(bucket) {
			own.Park(bucket, t, ts)
			dropped, park = 0, 1
		} else {
			j.base.M.DroppedOnFly++
		}
		switch {
		case !j.obs.Enabled():
		case e.Retired():
			// No lifecycle to charge; a parking has N and M 0.
			j.obs.Span(span.KindClosedDrop, 0, ts, s, dropped, 0, int64(t.EncodedSize()), 0)
		case e.TraceID != 0:
			j.obs.Span(span.KindPunctDropFly, e.TraceID, ts, s,
				dropped, park, int64(t.EncodedSize()), 0)
		}
		return nil
	}

	if _, err := j.base.States[s].InsertAt(t, ts); err != nil {
		return err
	}
	if j.mon.full(j.base.States[0].MemBytes() + j.base.States[1].MemBytes()) {
		return j.fire(stateFull, ts, s)
	}
	return nil
}

// processPunct records a punctuation into its side's set and fires the
// events the monitor finds due (state purge, index build, propagation).
// trace is the punctuation's provenance trace if an upstream join already
// allocated one (it rides the item: Item.Span); 0 makes this operator the
// trace root.
func (j *PJoin) processPunct(s int, p punct.Punctuation, ts stream.Time, trace uint64) error {
	j.base.M.PunctsIn[s]++
	if j.xjoin || p.IsEmpty() {
		// XJoin exploits no punctuation, and an empty one matches
		// nothing: dropped without counting toward thresholds.
		j.obs.Span(span.KindPunctDiscard, 0, ts, s, 0, 0, 0, 0)
		return nil
	}
	if p.Width() != j.schema(s).Width() {
		return fmt.Errorf("core: pjoin: punctuation %s has width %d, stream %d schema is %s",
			p, p.Width(), s, j.schema(s))
	}
	e, err := j.psets[s].Add(p)
	if err != nil {
		return err
	}
	e.ArrivedAt = int64(ts)
	if j.obs.Enabled() {
		if trace == 0 {
			trace = span.NewID()
		}
		e.TraceID = trace
		j.obs.Span(span.KindPunctArrive, trace, ts, s, int64(e.PID), 0, 0, 0)
	}
	if j.cfg.EagerIndex && !j.cfg.DisablePropagation {
		j.indexBuild(s)
	}
	purge, prop := j.mon.punct(s, ts)
	if purge {
		if err := j.fire(purgeThresholdReach, ts, s); err != nil {
			return err
		}
	}
	if prop {
		return j.fire(propagateCountReach, ts, s)
	}
	return nil
}

func (j *PJoin) schema(s int) *stream.Schema {
	if s == 0 {
		return j.cfg.SchemaA
	}
	return j.cfg.SchemaB
}

// purgeState applies the purge rules (eq. 1) to state `victim`: every
// tuple whose join value matches the opposite side's punctuation set is
// removed. Tuples that may still owe left-over joins against the
// opposite state's disk-resident portion go to the purge buffer instead
// of being freed (§3.1); the disk join clears them.
//
// Punctuations whose join pattern is a constant or an enumeration purge
// by direct key-group removal — cost O(tuples removed), no non-matching
// group is touched — while range and wildcard patterns fall back to an
// ordered scan of every bucket. The run is also incremental: after a
// run, no state tuple matches any set entry (the run removed them and
// drop-on-the-fly keeps later matching arrivals out — the entry stays
// in the set as long as it is in force), so the next run only needs the
// entries that arrived since (purgeMark).
// The watermark is also what lets an entry retire (applyMarks): every
// retired pid sits below it.
// PurgeScanned counts work actually done: removed tuples on the direct
// path, full occupancy on scans; PurgeWalk counts the victim's whole
// memory portion every run, which is what a purge that walks the table
// examines.
func (j *PJoin) purgeState(victim int, now stream.Time) error {
	j.base.M.PurgeRuns++
	j.base.M.PurgeWalk += int64(j.base.States[victim].Stats().MemTuples)
	// Purge duration is wall clock: virtual time cannot advance inside
	// one operator call. Recorded at both exits; no defer closure, to
	// keep the eager-purge path allocation-light.
	purgeStart := time.Now()
	var removedRun, scannedRun int64
	pset := j.psets[1-victim] // punctuations from the opposite stream
	st := j.base.States[victim]
	opp := j.base.States[1-victim]
	attr := j.attrs[victim]
	oppAttr := j.attrs[1-victim]

	// Provenance attribution: each removed tuple is charged to the
	// earliest-arrived punctuation that exhausts its key — the entry the
	// purge logic itself reasons from (FirstMatchAttr). Shares accumulate
	// per trace across the whole run and flush as one punct_purge_mem
	// span per punctuation when the run ends. Only allocated when spans
	// are on; the untraced purge path is unchanged.
	spansOn := j.obs.Enabled()
	var shares map[uint64]*purgeShare
	if spansOn {
		shares = make(map[uint64]*purgeShare)
	}
	emitPurgeSpans := func() {
		if len(shares) == 0 {
			return
		}
		d := time.Since(purgeStart).Nanoseconds()
		for tr, sh := range shares {
			j.obs.Span(span.KindPunctPurgeMem, tr, now, victim, sh.freed, sh.parked, sh.bytes, d)
		}
	}

	// finish completes the removal of one bucket's matching tuples,
	// identically on every path: park them in the purge buffer when the
	// opposite bucket still has disk-resident partners, else discard and free.
	finish := func(i int, removed []*store.StoredTuple) {
		if len(removed) == 0 {
			return
		}
		removedRun += int64(len(removed))
		park := opp.HasDisk(i)
		if spansOn {
			for _, sd := range removed {
				e := pset.FirstMatchAttr(oppAttr, sd.T.Values[attr])
				if e == nil || e.TraceID == 0 {
					continue
				}
				sh := shares[e.TraceID]
				if sh == nil {
					sh = &purgeShare{}
					shares[e.TraceID] = sh
				}
				if park {
					sh.parked++
				} else {
					sh.freed++
					sh.bytes += int64(sd.T.EncodedSize())
				}
			}
		}
		if park {
			for _, sd := range removed {
				st.AddToPurgeBuffer(i, sd, now)
			}
		} else {
			for _, sd := range removed {
				j.discard(victim, sd)
				st.Free(sd)
			}
			j.base.M.Purged += int64(len(removed))
		}
	}

	direct, scanEntries := pset.PurgePlan(oppAttr, j.purgeMark[victim])

	if len(direct) == 1 && len(scanEntries) == 0 {
		// The dominant shape — one per-key constant punctuation under
		// eager purge — stays allocation-light: one group removal.
		bucket, removed := st.TakeKeyGroup(direct[0])
		j.base.M.PurgeScanned += int64(len(removed))
		scannedRun += int64(len(removed))
		finish(bucket, removed)
	} else if len(direct) > 0 || len(scanEntries) > 0 {
		// General shape: collect all removals per bucket, restore each
		// bucket's arrival order (groups come out key-contiguous), then
		// finish buckets in ascending order — byte-for-byte the purge
		// buffers the bucket-ordered scan would have produced.
		removedBy := make(map[int][]*store.StoredTuple)
		for _, v := range direct {
			bucket, removed := st.TakeKeyGroup(v)
			if len(removed) == 0 {
				continue
			}
			j.base.M.PurgeScanned += int64(len(removed))
			scannedRun += int64(len(removed))
			removedBy[bucket] = append(removedBy[bucket], removed...)
		}
		if len(scanEntries) > 0 {
			match := func(v value.Value) bool {
				for _, e := range scanEntries {
					if e.P.PatternAt(oppAttr).Matches(v) {
						return true
					}
				}
				return false
			}
			for i := 0; i < st.NumBuckets(); i++ {
				bucketLen := st.Bucket(i).MemLen()
				if bucketLen == 0 {
					continue
				}
				j.base.M.PurgeScanned += int64(bucketLen)
				scannedRun += int64(bucketLen)
				removed := st.FilterMem(i, func(sd *store.StoredTuple) bool {
					return match(sd.T.Values[attr])
				})
				if len(removed) > 0 {
					removedBy[i] = append(removedBy[i], removed...)
				}
			}
		}
		buckets := make([]int, 0, len(removedBy))
		for i := range removedBy {
			buckets = append(buckets, i)
		}
		sort.Ints(buckets)
		for _, i := range buckets {
			removed := removedBy[i]
			sort.Slice(removed, func(a, b int) bool { return removed[a].ATS < removed[b].ATS })
			finish(i, removed)
		}
	}

	j.purgeMark[victim] = pset.MaxPID()
	j.applyMarks()
	emitPurgeSpans()
	j.lat.RecordPurge(time.Since(purgeStart).Nanoseconds())
	j.obs.Span(span.KindPurgeRun, 0, now, victim, removedRun, scannedRun, 0, 0)
	return nil
}

// purgeShare accumulates one punctuation's slice of a purge run for
// provenance: tuples freed outright, tuples parked for a disk pass, and
// the bytes the freed tuples occupied (stream.Tuple.EncodedSize — the
// same measure the state's MemBytes accounting uses).
type purgeShare struct {
	freed, parked, bytes int64
}

// applyMarks hands each punctuation set the watermark of the purge that
// applies it (punct.Set.Applied), so the entries that owe nothing retire.
// Not while a disk pass is in flight: a bucket's disk purge is bounded by
// the pids present when it opened (dropBound), and a retired key answers
// with a pid at most the watermark (punct.Set.FirstMatchAttr). passDone
// catches up.
func (j *PJoin) applyMarks() {
	if !j.disk.InFlight() {
		j.psets[0].Applied(j.purgeMark[1])
		j.psets[1].Applied(j.purgeMark[0])
	}
}

// discard finalises a tuple's removal from the state: its punctuation's
// match count (own side's index) is decremented, possibly making that
// punctuation propagable.
func (j *PJoin) discard(side int, sd *store.StoredTuple) {
	if sd.PID != punct.NoPID {
		j.psets[side].Unmatch(sd.PID)
	}
}

// indexBuild runs the punctuation index building algorithm (paper
// Fig. 3, Index-Build): tuples with a null pid are matched against the
// not-yet-indexed punctuations of their own side; matching tuples get
// the pid of the first-arrived punctuation they match and bump its count.
// If the state has disk-resident tuples, the newly indexed punctuations
// are marked disk-pending: their counts cannot be trusted until a disk
// pass indexes the disk portion.
//
// A batch whose every punctuation pins the join attribute to listed
// values (constant or enumeration) is built from the key groups
// (indexBuildKeyed); any other batch scans the state (indexBuildScan).
// Both assign the same pids and counts; IndexScanned counts the stored
// tuples each one visits, IndexWalk the ones the scan would.
func (j *PJoin) indexBuild(s int) {
	pending := j.psets[s].Unindexed()
	if len(pending) == 0 {
		return
	}
	stats := j.base.States[s].Stats()
	j.base.M.IndexWalk += int64(stats.MemTuples + stats.PurgeTuples)
	if keyedBatch(pending, j.attrs[s]) {
		j.indexBuildKeyed(s, pending)
	} else {
		j.indexBuildScan(s, pending)
	}
	hasDisk := j.base.States[s].AnyDisk()
	for _, e := range pending {
		j.psets[s].MarkIndexed(e)
		if hasDisk {
			j.diskPending[s][e.PID] = true
		}
	}
}

// keyedBatch reports whether every pending punctuation names its join
// values outright, so the tuples it can match sit in known key groups.
func keyedBatch(pending []*punct.Entry, attr int) bool {
	for _, e := range pending {
		if k := e.P.PatternAt(attr).Kind(); k != punct.Constant && k != punct.Enum {
			return false
		}
	}
	return true
}

// indexBuildScan walks every memory group and purge buffer of the side
// and tries the pending punctuations, in arrival order, on each tuple
// with a null pid.
func (j *PJoin) indexBuildScan(s int, pending []*punct.Entry) {
	st := j.base.States[s]
	scanOne := func(sd *store.StoredTuple) {
		j.base.M.IndexScanned++
		if sd.PID != punct.NoPID {
			return
		}
		for _, e := range pending {
			if e.P.Matches(sd.T.Values) {
				sd.PID = e.PID
				e.Count++
				break
			}
		}
	}
	for i := 0; i < st.NumBuckets(); i++ {
		st.Bucket(i).ForEachMem(scanOne)
		for _, sd := range st.Bucket(i).PurgeBuf {
			scanOne(sd)
		}
	}
}

// indexBuildKeyed costs the batch its matches instead of the state: a
// tuple can match a punctuation whose join pattern is a constant or an
// enumeration only if its key is one of those values, so each punctuation
// visits just its keys' memory groups and the purge buffers of their
// buckets. Taking the punctuations in arrival order and skipping tuples
// that already carry a pid gives every tuple the first-arrived match, as
// the scan does.
//
//pjoin:hotpath
func (j *PJoin) indexBuildKeyed(s int, pending []*punct.Entry) {
	attr := j.attrs[s]
	for _, e := range pending {
		pat := e.P.PatternAt(attr)
		if pat.Kind() == punct.Constant {
			j.indexKey(s, e, pat.ConstVal())
			continue
		}
		for _, v := range pat.Members() {
			j.indexKey(s, e, v)
		}
	}
}

// indexKey tries punctuation e on the side-s tuples that carry key: its
// memory group and whatever is parked in its bucket's purge buffer.
func (j *PJoin) indexKey(s int, e *punct.Entry, key value.Value) {
	st := j.base.States[s]
	j.idxGroup, _ = st.ProbeMem(key, j.idxGroup[:0])
	for _, sd := range j.idxGroup {
		j.indexOne(e, sd)
	}
	clear(j.idxGroup) // pin no stored tuple between builds
	for _, sd := range st.Bucket(st.BucketOf(key)).PurgeBuf {
		j.indexOne(e, sd)
	}
}

func (j *PJoin) indexOne(e *punct.Entry, sd *store.StoredTuple) {
	j.base.M.IndexScanned++
	if sd.PID == punct.NoPID && e.P.Matches(sd.T.Values) {
		sd.PID = e.PID
		e.Count++
	}
}

// indexDiskTuple assigns a pid to a disk-resident tuple that was spilled
// before its matching punctuation arrived. Called from disk passes, for
// the tuples without a pid only. A tuple a retired punctuation of its own
// stream matches (only a dishonest stream sends one) keeps no pid.
func (j *PJoin) indexDiskTuple(side int, sd *store.StoredTuple) {
	j.base.M.IndexScanned++
	j.base.M.IndexWalk++
	if e := j.psets[side].FirstMatch(sd.T.Values); e != nil && !e.Retired() {
		sd.PID = e.PID
		e.Count++
	}
}

// propagate implements Propagate (paper Fig. 3, lines 16-21): release
// every indexed punctuation whose match count is zero — by Theorem 1 no
// future join result can match it — rewritten over the output schema.
// §3.5 then removes it from the set; here it stays in force until it owes
// nothing (punct.Set.Release). If left-over joins are still pending on
// disk or in purge buffers, a disk pass runs first (§3.2: "when
// punctuation propagation needs to finish up all the left-over joins,
// will the disk join be scheduled to run"). final is Finish's call, after
// which no result follows (punct.Set.Propagable).
func (j *PJoin) propagate(now stream.Time, final bool) error {
	if j.disk.InFlight() {
		// A budgeted pass is in flight: defer the release to its
		// completion (passDone re-invokes propagate), which is when the
		// disk-pending marks clear.
		if !j.propPending && j.obs.Enabled() {
			// Record the deferral once per in-flight pass on every
			// punctuation that would otherwise release now, so
			// pjointrace can apportion propagation delay to the pass.
			for s := 0; s < 2; s++ {
				for _, e := range j.psets[s].Propagable(final) {
					if e.TraceID != 0 && !j.diskPending[s][e.PID] {
						j.obs.Span(span.KindPunctDefer, e.TraceID, now, s, int64(e.PID), 1, 0, 0)
					}
				}
			}
		}
		j.propPending = true
		return nil
	}
	if j.cfg.DiskChunkBytes == 0 {
		// Run-to-completion schedule: finish the left-over joins first.
		// Under a budget we release directly instead of forcing a whole
		// pass — entries whose counts may under-count disk-resident
		// tuples are disk-pending and skipped below, so this is safe; the
		// next completed pass releases them.
		if err := j.disk.Activate(now); err != nil {
			return err
		}
	}
	for s := 0; s < 2; s++ {
		// A disk-pending mark claims the entry's match count may miss
		// disk-resident side-s tuples. With no disk on side s such
		// misses cannot exist (passes rewrite kept tuples to disk, never
		// back to memory), so the marks are stale — drop them. Without
		// this, an entry index-built mid-pass (pid above the running
		// pass's pendBound snapshot) stays marked when that very pass
		// drains the disk: NeedsPass goes false, no pass ever runs
		// again, and the entry would never release — not even at Finish.
		if len(j.diskPending[s]) > 0 && !j.base.States[s].AnyDisk() {
			j.diskPending[s] = make(map[punct.PID]bool)
		}
		for _, e := range j.psets[s].Propagable(final) {
			if j.diskPending[s][e.PID] {
				if e.TraceID != 0 && j.obs.Enabled() {
					j.obs.Span(span.KindPunctDefer, e.TraceID, now, s, int64(e.PID), 2, 0, 0)
				}
				continue
			}
			outP, err := j.outputPunctuation(s, e.P)
			if err != nil {
				return err
			}
			outIt := stream.PunctItem(outP, now)
			// The released punctuation keeps its provenance trace, so a
			// downstream join continues the lifecycle under the same trace.
			outIt.Span = e.TraceID
			if err := j.out.Emit(outIt); err != nil {
				return err
			}
			j.base.M.PunctsOut++
			j.lastPropTs = maxTime(j.lastPropTs, now)
			j.lat.RecordPunctDelay(now, stream.Time(e.ArrivedAt))
			if e.TraceID != 0 && j.obs.Enabled() {
				j.obs.Span(span.KindPunctEmit, e.TraceID, now, s,
					int64(e.PID), 0, 0, int64(now)-e.ArrivedAt)
			}
			j.psets[s].Release(e)
		}
	}
	return nil
}

// outputPunctuation rewrites a punctuation from input side s over the
// join's output schema: its patterns keep their (offset) positions and
// the other side's attributes are wildcards. This is exactly what
// Theorem 1 licenses — no future result will match the punctuation's own
// patterns. (An equi-join result also repeats the join value in the
// other side's join column, but stating that here would make the
// punctuation look like a multi-column constraint and stop conservative
// downstream operators such as group-by from exploiting it.)
func (j *PJoin) outputPunctuation(s int, p punct.Punctuation) (punct.Punctuation, error) {
	return OutputPunctuation(j.cfg.SchemaA, j.cfg.SchemaB, s, p)
}

// OutputPunctuation is the rewrite as a standalone function, for callers
// that predict a join's output form from its inputs.
func OutputPunctuation(schemaA, schemaB *stream.Schema, s int, p punct.Punctuation) (punct.Punctuation, error) {
	off := 0
	if s == 1 {
		off = schemaA.Width()
	}
	return p.Widen(schemaA.Width()+schemaB.Width(), off)
}

// relocate is the state-relocation component (§3.3): on StateFull, spill
// the largest buckets until the memory-resident size is under the
// threshold. Before a bucket is spilled its tuples are indexed against
// the full own-side punctuation set so disk-resident tuples carry pids.
func (j *PJoin) relocate(now stream.Time) error {
	// DTS is stamped now+1: the tuples were memory-resident for every
	// probe processed at `now`, including the arrival that triggered the
	// relocation.
	return j.base.Relocate(now+1, j.mon.th.MemoryBytes, func(side, bucket int) error {
		if j.cfg.DisablePropagation {
			return nil
		}
		j.base.States[side].Bucket(bucket).ForEachMem(func(sd *store.StoredTuple) {
			if sd.PID != punct.NoPID {
				return
			}
			j.base.M.IndexScanned++
			j.base.M.IndexWalk++
			if e := j.psets[side].FirstMatch(sd.T.Values); e != nil && !e.Retired() {
				sd.PID = e.PID
				e.Count++
			}
		})
		return nil
	})
}

// passHooks assembles the disk-join component's callbacks (§3.2): on
// top of finishing the left-over joins and clearing the purge buffers,
// a PJoin pass purges disk-resident tuples that match the opposite
// punctuation set and completes the punctuation index over the disk
// portion (unless propagation is off).
//
// The drop decision is bounded by the punctuations present when the
// bucket opened (dropBound, captured in OnBucketOpen): a budgeted pass's
// finalise runs after arrivals have interleaved with the bucket, and a
// punctuation that arrived mid-pass may still owe left-over joins
// between the disk tuples it matches and tuples parked after the
// bucket's snapshot — those pairs are the next pass's job, so the next
// pass is also the earliest allowed to drop the disk side of them.
// FirstMatchAttr returns the earliest-arrived matching live entry, so
// comparing its pid against the bound is exact, or for a retired key a
// pid at most the Applied watermark, which applyMarks moves only between
// passes: at or below dropBound (and pendBound), so a retired key drops.
// When a pass runs to completion nothing can interleave and the bound is
// vacuous.
func (j *PJoin) passHooks() joinbase.PassHooks {
	hooks := joinbase.PassHooks{
		OnPassStart: func() {
			j.pendBound[0] = j.psets[0].MaxPID()
			j.pendBound[1] = j.psets[1].MaxPID()
		},
		OnBucketOpen: func() {
			j.dropBound[0] = j.psets[0].MaxPID()
			j.dropBound[1] = j.psets[1].MaxPID()
		},
		DropDisk: func(side int, key value.Value, size int) bool {
			e := j.psets[1-side].FirstMatchAttr(j.attrs[1-side], key)
			drop := e != nil && e.PID <= j.dropBound[1-side]
			switch {
			case !drop || !j.obs.Enabled():
			case e.Retired():
				j.obs.Span(span.KindClosedDrop, 0, j.now, side, 0, 1, int64(size), 0)
			case e.TraceID != 0:
				// The bytes the partition loses: the whole spill record.
				j.obs.Span(span.KindPunctPurgeDisk, e.TraceID, j.now, side, 1, 0, int64(size), 0)
			}
			return drop
		},
		OnDiscard: j.discard,
	}
	if !j.cfg.DisablePropagation {
		hooks.IndexDisk = j.indexDiskTuple
	}
	return hooks
}

// passDone runs when a disk pass completes: the pass read and indexed
// every disk-resident tuple, so the match counts of the punctuations
// present at its start are complete again, and a propagation release
// that was deferred mid-pass re-runs.
func (j *PJoin) passDone(now stream.Time) error {
	// Only marks present when the pass started are provably complete:
	// an entry index-built mid-pass may have missed disk tuples in
	// buckets the pass had already read past (see pendBound).
	for s := 0; s < 2; s++ {
		for pid := range j.diskPending[s] {
			if pid <= j.pendBound[s] {
				delete(j.diskPending[s], pid)
			}
		}
	}
	j.applyMarks()
	if j.propPending {
		j.propPending = false
		j.indexBuild(0)
		j.indexBuild(1)
		return j.propagate(now, false)
	}
	return nil
}

// OnIdle implements op.Operator: it informs the monitor that the inputs
// are stalled, which fires DiskJoinActivate once the activation
// threshold elapses (§3.2's reactive scheduling).
func (j *PJoin) OnIdle(now stream.Time) (bool, error) {
	j.now = maxTime(j.now, now)
	// "Worked" means a pass step actually executed, so the driver keeps
	// ticking while left-over work remains.
	before := j.base.M.DiskChunks
	if j.mon.idle(j.now) {
		if err := j.fire(diskJoinActivate, j.now, 0); err != nil {
			return false, err
		}
	}
	if err := j.disk.Pump(j.now); err != nil {
		return false, err
	}
	return j.base.M.DiskChunks > before, nil
}

// AlignInputs implements exec.EventTimeAligned: a tuple stays in state
// until the opposite stream's punctuation arrives, so the live driver keeps
// the two inputs abreast in event time.
func (j *PJoin) AlignInputs() {}

// RequestPropagation serves the pull propagation mode (§3.5): a
// downstream operator asks for whatever punctuations are propagable.
func (j *PJoin) RequestPropagation(now stream.Time) error {
	j.now = maxTime(j.now, now)
	return j.fire(propagateRequest, j.now, 0)
}

// Finish implements op.Operator: after both inputs ended, any remaining
// left-over joins are completed, propagable punctuations are released
// (StreamEmpty's components have already run from Process), and EOS is
// forwarded.
func (j *PJoin) Finish(now stream.Time) error {
	if j.finished {
		return fmt.Errorf("core: %s: double Finish", j.Name())
	}
	if !j.eos[0] || !j.eos[1] {
		return fmt.Errorf("core: %s: Finish before EOS on both ports", j.Name())
	}
	j.now = maxTime(j.now, now)
	if !j.cfg.DisablePropagation {
		// One last purge run per side before the final disk pass: the
		// lazy purge threshold may not have fired since the last
		// punctuations arrived, leaving purgeable tuples in memory and
		// their punctuations' match counts above zero. Without this the
		// set propagated below depends on whether memory pressure
		// happened to relocate those tuples to disk (where the final
		// pass purges them) — i.e. on thresholds, not on stream
		// content. The differential oracle holds the propagated
		// multiset schedule-independent across the config matrix. This
		// is sound because a released punctuation stays in force: its
		// purge power does not depend on when it was released.
		for victim := 0; victim < 2; victim++ {
			if err := j.purgeState(victim, j.now); err != nil {
				return err
			}
		}
	}
	if !j.cfg.DisablePropagation {
		// Index punctuations that arrived since the last build BEFORE
		// the final pass: the pass completes their match counts over the
		// disk-resident portion and its completion clears their
		// disk-pending marks. Indexing after the pass would leave fresh
		// entries marked pending with no pass left to run, so the
		// release below would skip them — while a schedule whose pass
		// happened to start later releases them (caught by the
		// differential oracle as a blocking/chunked divergence).
		j.indexBuild(0)
		j.indexBuild(1)
	}
	if err := j.disk.Finish(j.now); err != nil {
		return err
	}
	if !j.cfg.DisablePropagation {
		if err := j.propagate(j.now, true); err != nil {
			return err
		}
	}
	if j.obs.Enabled() {
		// Close the lifecycle of every punctuation that never propagated
		// (propagation disabled, count still positive, or disk-pending at
		// the end) so no trace dangles: pjointrace treats punct_eos_close
		// as an administrative terminal.
		for s := 0; s < 2; s++ {
			for _, e := range j.psets[s].Entries() {
				if e.TraceID != 0 && !e.Propagated {
					j.obs.Span(span.KindPunctEOSClose, e.TraceID, j.now, s, int64(e.PID), 0, 0, 0)
				}
			}
		}
	}
	j.finished = true
	if b := j.obs.Board(); b != nil {
		j.publishGauges(b) // the run's last state
	}
	return j.out.Emit(stream.EOSItem(j.now))
}

func maxTime(a, b stream.Time) stream.Time {
	if a > b {
		return a
	}
	return b
}
