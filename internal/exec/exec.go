// Package exec runs operator pipelines live: one goroutine per operator
// reading its input edges itself, pooled item batches flowing through
// short buffered channels (edgeDepth batches), back-pressure by channel
// blocking. It is the runtime half of the mini query engine (the simulator
// in internal/sim is the measurement half — both drive the same
// op.Operator implementations).
//
// There is one dataflow path. Edges carry batches of up to
// Pipeline.BatchSize items, each cut when full (Edge), and the operator
// driver hands each batch to op.ProcessAll; per-item delivery is that
// same path at batch size 1 (the default). The one rule the plan around
// a join relies on (paper §3.5, Fig. 1: punctuations must reach the
// group-by early) lives in Edge: a punctuation or EOS is never queued
// behind buffered tuples.
//
// A source copies nothing: its edge carries views of the caller's slice
// (stream.Batch.Lend), cut by the same rule, and the reading driver
// restamps its own copy of each. The caller's items are read and never
// written, and must not change until Run returns.
//
// The executor owns arrival timestamping: every item entering an
// operator has its Item.Ts overwritten with a strictly increasing
// timestamp (never below the wall-clock elapsed time when its batch was
// received), which is the property the join operators'
// duplicate-avoidance bookkeeping requires. Tuples are immutable and
// shared — the same *stream.Tuple may be in several batches, pipelines
// and join states at once — so the executor never writes or copies one:
// arrival time is Item.Ts, and an operator that retains a tuple and
// needs the arrival time keeps it beside the tuple (the joins store it
// as store.StoredTuple.ATS; a result's Ts is the later partner's
// arrival).
//
// The one exception to "shared" is a join's output: an Edge implements
// op.JoinEmitter and builds the results of the join feeding it inside the
// batch it is filling, so they travel, and are recycled, with the batch.
// Such an item is marked stream.Item.Borrowed: its tuple is valid until
// the Process / ProcessBatch call that delivers it returns (op.Operator
// rule 7, DESIGN.md §12).
package exec

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pjoin/internal/obs"
	"pjoin/internal/obs/health"
	"pjoin/internal/obs/span"
	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// Edge is a channel between pipeline stages. It implements op.Emitter
// for the upstream operator; the downstream operator reads from it.
//
// The channel carries pooled batches (stream.Batch): Emit accumulates
// under mu and a cut sends the whole buffer in one channel operation. A
// cut happens when the buffer is full (at size 1 every Emit is a cut,
// which is per-item delivery), when a punctuation or EOS is emitted — it
// flushes the buffer with itself as the last element, so constraint
// information is never delayed behind buffered data — and when the
// linger budget runs out: with BatchLinger > 0 a tuple may wait in the
// buffer for at most that long (the edge's one timer, re-armed for each
// waiting buffer, cuts the batch); with linger zero every Emit flushes,
// so a larger batch size adds no latency and no fill.
//
// Full means at the batch's own room, never above the batch size fixed
// at creation (Pipeline.BatchSize). Until a batch of the edge fills, a
// fresh one is born with room for min(size, birthRoom) items; the first
// that fills switches the edge to size for every fresh batch after it. A
// recycled batch keeps the room it was born with (stream.Lane.Get).
//
// Consumed batches come back through lane, the edge's own return path:
// the batches of an edge, with the result slabs a join has grown in them,
// stay on that edge.
//
// An edge a Source feeds holds no items of its own: its batches are bare
// headers, each lent a view of the source's input (lend), which its driver
// copies before restamping and a Sink reads as they are. The caller's
// slice is read and never written, and must not change until Run returns.
// Its runs are cut by the same rule (cut); the source's own pace stands in
// for the linger timer.
type Edge struct {
	p      *Pipeline
	ch     chan *stream.Batch
	lane   *stream.Lane
	wake   chan struct{} // the reading driver's doorbell (Spawn sets it; nil under a Sink)
	size   int
	linger time.Duration

	mu     sync.Mutex //pjoin:lockrank leaf
	buf    *stream.Batch
	room   int         // the room a fresh batch is born with
	timer  *time.Timer // the linger timer: created at the first arming, Reset after
	armed  bool        // its callback is pending
	closed bool
	// sink marks an edge consumed by Sink rather than an operator. Sink
	// edges skip tuple_cut spans: result tuples inherit their sampled
	// ancestor's trace, so a join's output edge would otherwise emit one
	// cut span per result — span volume scaling with output rate — and
	// the emit → sink hop is already measured by tuple_result's D.
	sink bool

	// source marks an edge a Source feeds: its items carry the source's
	// event time, and the source keeps promised. promised is the least Ts
	// the source can still emit (a paced source stores its next item's Ts
	// before waiting for it, an unpaced one each item's Ts after emitting
	// it). wanted is raised by a driver holding another port back for this
	// one; the next promise lowers it and rings the doorbell.
	source   bool
	promised atomic.Int64
	wanted   atomic.Bool
}

var (
	_ op.Emitter     = (*Edge)(nil)
	_ op.JoinEmitter = (*Edge)(nil)
)

// Emit implements op.Emitter. It blocks under back-pressure and fails
// when the pipeline has been cancelled or the edge closed. A borrowed
// item is re-homed into the batch being filled (stream.Batch.Append), so
// operators that forward what they are handed need no copy of their own.
func (e *Edge) Emit(it stream.Item) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.buf == nil {
		if err := e.openLocked(e.room); err != nil {
			return err
		}
	}
	e.buf.Append(it)
	return e.cutLocked(it.Kind)
}

// EmitJoin implements op.JoinEmitter: the join result of a and c at time
// ts is built in the batch being filled, under the mutex Emit takes, and
// delivered borrowed.
func (e *Edge) EmitJoin(a, c *stream.Tuple, ts stream.Time) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.buf == nil {
		if err := e.openLocked(e.room); err != nil {
			return err
		}
	}
	e.buf.AppendJoin(a, c, ts)
	return e.cutLocked(stream.KindTuple)
}

// lend sends run, a view of a source's input, as one lent batch
// (stream.Batch.Lend): the edge copies no item. forced is flushLocked's.
func (e *Edge) lend(run []stream.Item, forced bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.openLocked(0); err != nil {
		return err
	}
	e.buf.Lend(run)
	return e.flushLocked(forced)
}

// openLocked starts the next batch, born with room for room items; a
// closed edge never has one.
func (e *Edge) openLocked(room int) error {
	if e.closed {
		return fmt.Errorf("exec: emit on a closed edge")
	}
	e.buf = e.lane.Get(room)
	return nil
}

// cut is an edge's one cut rule, for Emit's buffer (cutLocked) and a
// source's runs (feed) alike: whether a run with room for room items ends
// at its n-th item, of the given kind, and whether it ends full. A
// punctuation or EOS always ends it, so downstream purge/propagation
// latency is never queued behind buffered tuples; with no linger budget
// every item does, so latency is that of batch size 1 whatever the size.
// A run not cut waits at most linger.
func (e *Edge) cut(kind stream.ItemKind, n, room int) (cut, full bool) {
	full = kind == stream.KindTuple && n == room
	return full || kind != stream.KindTuple || e.linger <= 0, full
}

// cutLocked applies the cut rule after an item of the given kind was
// appended to the buffer, at the room it was born with; until the run is
// cut, the linger timer is armed.
func (e *Edge) cutLocked(kind stream.ItemKind) error {
	switch cut, full := e.cut(kind, len(e.buf.Items), cap(e.buf.Items)); {
	case full:
		// Every fresh batch from now on is born full size.
		e.room = e.size
		return e.flushLocked(false)
	case cut:
		return e.flushLocked(true)
	default:
		if !e.armed {
			e.armed = true
			if e.timer == nil {
				e.timer = time.AfterFunc(e.linger, e.onLinger)
			} else {
				// Not armed means the last callback has run, so this
				// schedules exactly one more.
				e.timer.Reset(e.linger)
			}
		}
		return nil
	}
}

// onLinger is the linger timer callback: cut whatever accumulated. A
// tuple appended at time t is flushed no later than t + linger — the
// callback pending at arming time fires within linger of the oldest
// buffered tuple, and flushes everything buffered after it too.
func (e *Edge) onLinger() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.armed = false
	if e.closed {
		return
	}
	_ = e.flushLocked(true) // a cancelled pipeline drops the cut; Run reports the cause
}

// flushLocked cuts the buffer and sends it as one batch, holding e.mu
// across the send so cut order equals channel order (the consumer never
// takes e.mu — not to receive, and not to return a batch: the lane is
// lock-free for that reason — so this cannot deadlock). Empty cuts are
// no-ops. forced marks cuts not caused by the batch filling
// (punctuation/EOS boundary, linger expiry, close) for the provenance cut
// spans.
func (e *Edge) flushLocked(forced bool) error {
	b := e.buf
	if b == nil {
		return nil
	}
	e.buf = nil
	if !e.sink && e.p.Obs.Enabled() {
		m := int64(0)
		if forced {
			m = 1
		}
		for _, it := range b.Items {
			if it.Kind == stream.KindTuple && it.Tuple.Span != 0 {
				e.p.Obs.Span(span.KindTupleCut, it.Tuple.Span, it.Ts, -1, int64(len(b.Items)), m, 0, 0)
			}
		}
	}
	select {
	case e.ch <- b:
		ring(e.wake)
		return nil
	case <-e.p.ctx.Done():
		return fmt.Errorf("exec: pipeline cancelled: %w", context.Cause(e.p.ctx))
	}
}

// ring leaves a token in a driver's doorbell unless one is there or wake
// is nil. The driver polls every port after taking it, so one is enough.
func ring(wake chan struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
}

// promise records that the source feeding e emits nothing stamped before
// ts, and wakes the reading driver if it is waiting for that.
func (e *Edge) promise(ts stream.Time) {
	e.promised.Store(int64(ts))
	if e.wanted.Load() && e.wanted.CompareAndSwap(true, false) {
		ring(e.wake)
	}
}

// close ends the edge's stream: sources call it when they are done, and
// Run closes whatever is still open on its way out (an operator never
// closes its output edge). The remaining buffer is flushed first; every
// send happens under the mutex and after a closed check, so neither a late
// Emit nor a concurrently firing linger callback can send on the closed
// channel. The linger timer is stopped; a callback already past Stop finds
// the edge closed. The doorbell is rung last, so the driver sees the close.
func (e *Edge) close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	if e.timer != nil {
		e.timer.Stop()
	}
	_ = e.flushLocked(true)
	close(e.ch)
	ring(e.wake)
}

// Pipeline assembles sources, operators and sinks, then runs them all
// concurrently.
type Pipeline struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	wg     sync.WaitGroup
	// watchers holds health-watcher goroutines (see Watch); they outlive
	// the operator drain and are joined after cancellation in Run.
	watchers sync.WaitGroup
	start    time.Time

	errOnce sync.Once
	err     error

	// IdlePoll is how often an operator with stalled inputs gets an
	// OnIdle call (0 disables; default 5ms). Set before Run.
	IdlePoll time.Duration

	// BatchSize is the dataflow granularity of edges created after it is
	// set: each edge delivers batches of up to BatchSize items, cut when
	// full (Edge), and ≤ 1 (the default) means batches of one — per-item
	// delivery. The value changes only how much channel and wakeup
	// overhead an item pays: punctuations and EOS always cut batches, and
	// operators see the same items in the same order through
	// op.ProcessAll at every size. Set before creating edges.
	BatchSize int

	// BatchLinger bounds how long a tuple may wait in an edge buffer
	// before the batch is cut (0, the default, flushes on every Emit, so
	// a larger BatchSize adds no latency). It has no effect at
	// BatchSize ≤ 1, where every Emit already fills the batch. Set before
	// creating edges.
	BatchLinger time.Duration

	// pool creates and counts the batches edges cut and consumers
	// return; each edge recycles its own through a lane over it.
	pool stream.BatchPool

	// Obs is the pipeline's observability handle; each spawned operator
	// gets a derived handle stamped with its name, and the executor
	// records operator lifecycle events (start, finish) on it. nil
	// disables observability. Set before Run.
	Obs *obs.Instr

	// SpanSampler admits source tuples into provenance tracing (see
	// internal/obs/span): a sampled tuple is copied, stamped with a
	// fresh trace ID in Tuple.Span, and followed through edge cuts,
	// driver delivery, probes and result emission. nil admits nothing.
	// Only effective when Obs carries a span tracer. Set before Run.
	SpanSampler *span.Sampler

	// Clock returns the elapsed offset since pipeline start used for
	// restamping and for idle/pull timestamps. nil (the default) reads
	// the wall clock; tests inject a fake to pin timing-dependent
	// behaviour. Set before Run.
	Clock func() time.Duration

	launched []func()
	edges    []*Edge
	pulls    map[op.Operator]*PullHandle
}

// NewPipeline returns an empty pipeline.
func NewPipeline() *Pipeline {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &Pipeline{
		ctx: ctx, cancel: cancel,
		IdlePoll: 5 * time.Millisecond,
		pulls:    make(map[op.Operator]*PullHandle),
	}
}

// edgeDepth is the channel capacity of an edge, in batches: what a
// producer can run ahead of its consumer. Short on purpose — a saturated
// source blocks within a few batches instead of queueing its input — and
// counted in batches because the wakeup is what an edge costs, whatever
// the batch holds. Sized by the sweep in EXPERIMENTS.md, issue 22: bytes
// per tuple grow with the depth from 2 on, CPU per tuple and the open-loop
// latency tail stop improving at 16.
const edgeDepth = 16

// edgeInFlight is every batch an edge can own at once, hence its lane's
// depth: edgeDepth queued, one being filled or blocked in its send, one
// being processed (DESIGN.md §12, "Short edges").
const edgeInFlight = edgeDepth + 2

// birthRoom is the room, in items, of a batch an edge is born with while
// none of its batches has filled: 64 48-byte items and the object header
// are 3,080 B, in the 3,200-B size class. An edge whose punctuations cut
// every run shorter never holds a larger batch (DESIGN.md §12, "Edges").
const birthRoom = 64

// Edge allocates a new channel edge; its batch size and linger are fixed
// here from BatchSize and BatchLinger.
func (p *Pipeline) Edge() *Edge {
	size := p.BatchSize
	if size < 1 {
		size = 1
	}
	e := &Edge{p: p, ch: make(chan *stream.Batch, edgeDepth), lane: p.pool.Lane(edgeInFlight), size: size, room: min(size, birthRoom), linger: p.BatchLinger}
	p.edges = append(p.edges, e)
	return e
}

// elapsed is the offset since pipeline start on the configured clock.
func (p *Pipeline) elapsed() time.Duration {
	if p.Clock != nil {
		return p.Clock()
	}
	return time.Since(p.start)
}

// sysNow converts the clock offset into the operator's time domain:
// never at or below lastTs, the timestamp of the last item the operator
// processed. Every timestamp handed to an operator — item restamps,
// OnIdle pulses, pull-mode propagation — must come through this clamp;
// feeding raw wall-clock to OnIdle while items carry clamped timestamps
// would let the operator's clock run backwards whenever restamping had
// pushed item times ahead of the wall.
func (p *Pipeline) sysNow(lastTs stream.Time) stream.Time {
	//pjoin:allow opcontract sysNow IS the sanctioned wall-to-stream clamp: every executor timestamp funnels through here
	now := stream.Time(p.elapsed())
	if now <= lastTs {
		now = lastTs + 1
	}
	return now
}

func (p *Pipeline) fail(err error) {
	if err == nil {
		return
	}
	p.errOnce.Do(func() {
		p.err = err
		p.cancel(err)
	})
}

// Source feeds the given items into out in order and closes it. If paced
// is true, each item is released no earlier than its own timestamp
// (interpreted as an offset from pipeline start); otherwise items flow
// as fast as downstream accepts them. The source does NOT append an EOS
// item: include one (or use SourceItems which does).
//
// The source lends its input rather than copying it: out carries views of
// runs of items, cut where Emit would cut them. items is read and never
// written, and must not change until Run returns.
func (p *Pipeline) Source(out *Edge, items []stream.Item, paced bool) {
	p.source(out, items, paced, false)
}

// SourceItems is Source plus an automatic trailing EOS, stamped one past
// the last item. items is lent as Source lends it.
func (p *Pipeline) SourceItems(out *Edge, items []stream.Item, paced bool) {
	p.source(out, items, paced, true)
}

func (p *Pipeline) source(out *Edge, items []stream.Item, paced, eos bool) {
	out.source = true
	p.launched = append(p.launched, func() {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer out.close()
			p.feed(out, items, paced, eos)
		}()
	})
}

// feed is a source's goroutine: it lends out the runs of items in order,
// then the trailing EOS if eos, and returns early when the pipeline ends.
// A run ends where the edge's cut rule (Edge.cut) ends it. A paced run
// also ends before an item that joins it more than linger after its first
// item did — where Emit's linger timer would have cut it, so a source edge
// needs no timer — and before a sampled tuple, whose stamped copy travels
// in a slice of its own, as the trailing EOS does.
func (p *Pipeline) feed(out *Edge, items []stream.Item, paced, eos bool) {
	sin := p.Obs.Derive("source")
	// send lends a run unless it is empty; an unpaced source then promises
	// its last Ts.
	send := func(run []stream.Item, forced bool) bool {
		if len(run) == 0 {
			return true
		}
		if out.lend(run, forced) != nil {
			return false
		}
		if !paced {
			out.promise(run[len(run)-1].Ts)
		}
		return true
	}
	// pace is the one timer a paced source waits on. Every wait either
	// receives from it or ends the source, so it is always expired and
	// drained when it is re-armed.
	var pace *time.Timer
	var last stream.Time
	var opened time.Duration // when the paced run's first item joined it
	i := 0                   // the run gathered so far is items[i:j]
	for j, it := range items {
		if paced {
			out.promise(it.Ts)
			due, now := time.Duration(it.Ts), time.Since(p.start)
			at := max(due, now) // when it joins a run
			if i < j && at-opened > out.linger {
				if !send(items[i:j], true) {
					return
				}
				i = j
			}
			if due > now {
				if pace == nil {
					pace = time.NewTimer(due - now)
					defer pace.Stop()
				} else {
					pace.Reset(due - now)
				}
				select {
				case <-pace.C:
				case <-p.ctx.Done():
					return
				}
			}
			if i == j {
				opened = at
			}
		}
		last = it.Ts
		if it.Kind == stream.KindTuple && sin.Enabled() && p.SpanSampler.Sample() {
			// Copy before stamping the trace: the caller owns the tuple
			// and may share it across sources or replays.
			if !send(items[i:j], true) {
				return
			}
			t := *it.Tuple
			t.Span = span.NewID()
			sin.Span(span.KindTupleIngest, t.Span, it.Ts, -1, 0, 0, 0, 0)
			if !send([]stream.Item{stream.TupleItem(&t)}, out.size > 1) {
				return
			}
			i = j + 1
			continue
		}
		if cut, full := out.cut(it.Kind, j+1-i, out.size); cut {
			if !send(items[i:j+1], !full) {
				return
			}
			i = j + 1
		}
	}
	if send(items[i:], true) && eos {
		send([]stream.Item{stream.EOSItem(last + 1)}, true) // a cancelled pipeline drops it; Run reports the cause
	}
}

// PropagationPuller is implemented by operators that can be asked to
// release propagable punctuations on demand (core.PJoin's pull mode,
// paper §3.5).
type PropagationPuller interface {
	RequestPropagation(now stream.Time) error
}

// EventTimeAligned is implemented by operators whose state grows with how
// far one input leads another in event time: a join keeps each tuple until
// the opposite stream's punctuation purges it (core.PJoin, XJoin included).
// The driver keeps such an operator's source-fed ports abreast (drive).
type EventTimeAligned interface {
	AlignInputs()
}

// PullHandle requests propagation from a spawned operator. The request
// is delivered to the operator's own driver goroutine and serviced
// there, so callers on other goroutines (typically a downstream
// operator's emitter path) never touch the operator directly. Requests
// coalesce: while one is pending, further Request calls are no-ops.
type PullHandle struct {
	pending atomic.Bool
	wake    chan struct{} // the driver's doorbell
}

// Request asks for a propagation round. It never blocks.
func (h *PullHandle) Request() {
	h.pending.Store(true)
	ring(h.wake)
}

// Pull returns a handle that asks the (already spawned) operator to
// propagate punctuations. The operator must implement
// PropagationPuller.
func (p *Pipeline) Pull(o op.Operator) (*PullHandle, error) {
	if _, ok := o.(PropagationPuller); !ok {
		return nil, fmt.Errorf("exec: %s does not support pull-mode propagation", o.Name())
	}
	h, ok := p.pulls[o]
	if !ok {
		return nil, fmt.Errorf("exec: %s was not spawned on this pipeline", o.Name())
	}
	return h, nil
}

// Spawn wires the operator to its input edges (one per port, in port
// order) and schedules it to run. The operator's emitter must already
// point at an Edge created from this pipeline (or any op.Emitter). An
// edge has one reader: Spawn refuses an edge another operator or a Sink
// already reads, or one edge on two ports. An operator has one driver:
// Spawn refuses an operator it already spawned.
func (p *Pipeline) Spawn(o op.Operator, inputs ...*Edge) error {
	if o == nil {
		return fmt.Errorf("exec: Spawn of nil operator")
	}
	if _, ok := p.pulls[o]; ok {
		return fmt.Errorf("exec: %s is already spawned", o.Name())
	}
	if len(inputs) != o.NumPorts() || len(inputs) == 0 {
		return fmt.Errorf("exec: %s has %d ports (it needs one at least), got %d inputs", o.Name(), o.NumPorts(), len(inputs))
	}
	for i, in := range inputs {
		if in == nil {
			return fmt.Errorf("exec: %s: nil input edge %d", o.Name(), i)
		}
		if in.wake != nil || in.sink || slices.Contains(inputs[:i], in) {
			return fmt.Errorf("exec: %s: input edge %d already has a reader", o.Name(), i)
		}
	}
	ins := append([]*Edge(nil), inputs...)
	h := &PullHandle{wake: make(chan struct{}, 1)}
	for _, in := range ins {
		in.wake = h.wake
	}
	p.pulls[o] = h
	p.launched = append(p.launched, func() {
		p.wg.Add(1)
		go func() { // the operator's one goroutine
			defer p.wg.Done()
			p.fail(p.drive(o, ins, h))
		}()
	})
	return nil
}

// restamp assigns the items of one received batch their arrival
// timestamps, first, first+1, …, in place: the consumer owns the batch
// once received (of a lent batch, the copy drive makes), and only Item.Ts
// is written — never the tuple, which other batches, pipelines and join
// states may share. It returns how many EOS items the batch holds. A
// sampled tuple gets a deliver span whose D is the restamp delta: its time
// queued on the edge (plus batch linger) since the upstream hop stamped or
// emitted it.
//
//pjoin:hotpath
func restamp(oin *obs.Instr, port int, items []stream.Item, first stream.Time) (eos int) {
	spans := oin.Enabled()
	for i := range items {
		it := &items[i]
		ts := first + stream.Time(i)
		switch it.Kind {
		case stream.KindTuple:
			if spans && it.Tuple.Span != 0 {
				oin.Span(span.KindTupleDeliver, it.Tuple.Span, ts, port, 0, 0, 0, max(0, int64(ts-it.Ts)))
			}
		case stream.KindEOS:
			eos++
		}
		it.Ts = ts
	}
	return eos
}

// drive is the operator driver. It reads its input edges itself: each
// turn polls the ports round-robin from the one after the last served (a
// non-blocking receive on an empty channel takes no lock), so a saturated
// port cannot starve another, and blocks only when nothing it may read is
// queued — on the doorbell its edges and its pull handle ring, the idle
// tick and cancellation. A batch is restamped (one clock read: its items
// arrived together) and handed to op.ProcessAll; a lent batch is copied
// first.
//
// An EventTimeAligned operator's source-fed ports are kept abreast in
// event time (an aligner): a port whose last delivered Ts is past another
// port's frontier is not read while that other port has nothing queued.
//
// OnIdle fires at a tick that finds nothing delivered since the tick
// before: one to two IdlePoll after the last delivery. Input can then be
// queued only on a port the aligner holds back for a silent one, and that
// tick or the next releases it.
func (p *Pipeline) drive(o op.Operator, inputs []*Edge, pull *PullHandle) error {
	oin := p.Obs.Derive(o.Name())
	var lastTs stream.Time
	oin.Span(span.KindOpStart, 0, p.sysNow(lastTs), -1, 0, 0, 0, 0)
	var tick <-chan time.Time
	if p.IdlePoll > 0 {
		t := time.NewTicker(p.IdlePoll)
		defer t.Stop()
		tick = t.C
	}
	// chans[port] turns nil, never ready, at the port's EOS; live counts the ports to end.
	chans := make([]chan *stream.Batch, len(inputs))
	for port, in := range inputs {
		chans[port] = in.ch
	}
	var al *aligner
	if _, ok := o.(EventTimeAligned); ok {
		al = newAligner(inputs, p.IdlePoll)
	}
	live := len(inputs)
	port := 0                 // the port served last
	delivered := true         // the first tick is never an idle one
	var scratch []stream.Item // a lent batch's copy, as large as its edge's batches
	for {
		// Every turn: a saturated input never blocks. Non-pullers ignore requests.
		if pull.pending.CompareAndSwap(true, false) {
			if pp, ok := o.(PropagationPuller); ok {
				if err := pp.RequestPropagation(p.sysNow(lastTs)); err != nil {
					return fmt.Errorf("exec: %s pull: %w", o.Name(), err)
				}
			}
		}
		var b *stream.Batch
		for range chans {
			if port++; port == len(chans) {
				port = 0
			}
			if chans[port] == nil || al.held(port) {
				continue
			}
			select {
			case b = <-chans[port]:
			default:
				continue
			}
			if b == nil { // the edge closed: a protocol violation upstream
				return fmt.Errorf("exec: %s: input %d closed before its EOS (%d of %d ended)", o.Name(), port, len(chans)-live, len(chans))
			}
			break
		}
		if b == nil {
			select {
			case <-pull.wake:
			case <-tick:
				if !delivered {
					if _, err := o.OnIdle(p.sysNow(lastTs)); err != nil {
						return fmt.Errorf("exec: %s idle: %w", o.Name(), err)
					}
				}
				delivered = false
				al.tick(p.elapsed())
			case <-p.ctx.Done():
				return nil
			}
			continue
		}
		items := b.Items
		if b.Lent() {
			// A view of a source's input, which is never written: the
			// restamp goes to the driver's one copy.
			if cap(scratch) < len(items) {
				scratch = make([]stream.Item, 0, max(len(items), inputs[port].size))
			}
			items = append(scratch[:0], items...)
		}
		ts := items[len(items)-1].Ts // as it came off the edge
		// Strictly increasing, at least the wall-clock offset since start.
		first := p.sysNow(lastTs)
		eos := restamp(oin, port, items, first) > 0
		al.took(port, ts, first, eos)
		if eos {
			chans[port] = nil
			live--
		}
		lastTs = first + stream.Time(len(items)-1)
		err := op.ProcessAll(o, port, items)
		inputs[port].lane.Put(b)
		if err != nil {
			return fmt.Errorf("exec: %s: %w", o.Name(), err)
		}
		if live == 0 {
			// Every port ended; flush and emit our own EOS.
			if err := o.Finish(lastTs + 1); err != nil {
				return fmt.Errorf("exec: %s: %w", o.Name(), err)
			}
			oin.Span(span.KindOpFinish, 0, lastTs+1, -1, 0, 0, 0, 0)
			return nil
		}
		delivered = true
	}
}

// aligner is the driver's event-time alignment for an EventTimeAligned
// operator. Only ports a Source feeds take part: their items carry event
// time and their source keeps a promise, where an operator's output
// carries that operator's arrival stamps. Port p is held while some other
// counting port q has nothing queued and p's last delivered Ts is past q's
// frontier: the larger of the last Ts taken from q and q's source's
// promise. A port stops counting at its EOS, and at a tick when it has
// delivered nothing for IdlePoll, until it delivers again. The silence is
// measured on the pipeline clock, not in ticks: a tick that waited in the
// ticker while the driver was busy comes early. A nil aligner holds
// nothing.
type aligner struct {
	in     []*Edge
	poll   time.Duration
	taken  []stream.Time // per port: the last Ts delivered, as it came off the edge
	at     []stream.Time // per port: when that delivery was received
	counts []bool        // per port: source-fed, not ended, not silent for IdlePoll
}

func newAligner(in []*Edge, poll time.Duration) *aligner {
	a := &aligner{in: in, poll: poll, taken: make([]stream.Time, len(in)), at: make([]stream.Time, len(in)), counts: make([]bool, len(in))}
	for p, e := range in {
		a.counts[p] = e.source
	}
	return a
}

// held reports whether port p, not ended, must wait for another port. It
// marks the port waited for as wanted, so its source's next promise rings.
// A held port's own silence does not release it: only the port it waits
// for stops counting.
func (a *aligner) held(p int) bool {
	if a == nil || !a.in[p].source {
		return false
	}
	for q, e := range a.in {
		if q == p || !a.counts[q] || len(e.ch) > 0 || a.taken[p] <= a.frontier(q) {
			continue
		}
		// Mark, then read again: a promise stored before the mark is seen
		// here, one stored after it finds the mark and rings.
		e.wanted.Store(true)
		if a.taken[p] > a.frontier(q) {
			return true
		}
	}
	return false
}

func (a *aligner) frontier(q int) stream.Time {
	return max(a.taken[q], stream.Time(a.in[q].promised.Load()))
}

// took records a batch from port p whose last item came stamped ts,
// received at now; an EOS in it ends the port.
func (a *aligner) took(p int, ts, now stream.Time, eos bool) {
	if a == nil {
		return
	}
	a.taken[p], a.at[p] = ts, now
	a.counts[p] = a.in[p].source && !eos
}

// tick releases every port that has delivered nothing for IdlePoll.
func (a *aligner) tick(now time.Duration) {
	if a == nil {
		return
	}
	for p, at := range a.at {
		if now-time.Duration(at) >= a.poll {
			a.counts[p] = false
		}
	}
}

// Watch polls probe on a wall-clock cadence and feeds the samples to
// the stall detector d; the first sample that fires invokes onFire
// (once — the detector is latched) on the watcher goroutine. probe must
// be safe to call concurrently with the running operators: build it
// from concurrent-safe surfaces such as obs.Board.Gauges, not from a
// single-goroutine method like core.PJoin.Metrics. The watcher stops
// when the pipeline drains or is cancelled.
func (p *Pipeline) Watch(d *health.Detector, every time.Duration, probe func() health.Progress, onFire func(health.Report)) {
	if d == nil || probe == nil || every <= 0 {
		return
	}
	p.launched = append(p.launched, func() {
		// Watchers live on their own wait group: they run until the
		// pipeline is done, so counting them in p.wg would deadlock Run
		// (which waits for p.wg BEFORE cancelling the context).
		p.watchers.Add(1)
		go func() {
			defer p.watchers.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if r, fired := d.Observe(probe()); fired {
						if onFire != nil {
							onFire(r)
						}
						return
					}
				case <-p.ctx.Done():
					return
				}
			}
		}()
	})
}

// Sink attaches a draining collector to an edge and returns it. The
// collector's contents are complete once Run returns. A Sink on an edge
// that already has a reader makes Run fail before it launches anything.
func (p *Pipeline) Sink(in *Edge) *op.Collector {
	c := &op.Collector{}
	if in.wake != nil || in.sink {
		p.fail(fmt.Errorf("exec: Sink on an edge that already has a reader"))
		return c
	}
	in.sink = true
	p.launched = append(p.launched, func() {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				select {
				case b, ok := <-in.ch:
					if !ok {
						return
					}
					c.Grow(len(b.Items))
					err := c.EmitBatch(b.Items)
					// EOS cuts its batch, so it can only be the last item.
					sawEOS := b.Items[len(b.Items)-1].Kind == stream.KindEOS
					in.lane.Put(b)
					if err != nil || sawEOS {
						return
					}
				case <-p.ctx.Done():
					return
				}
			}
		}()
	})
	return c
}

// Run launches everything and blocks until the pipeline drains or the
// context is cancelled. It returns the first wiring or operator error.
func (p *Pipeline) Run(ctx context.Context) error {
	if p.err != nil { // a wiring error (Sink): launch nothing
		return p.err
	}
	p.start = time.Now()
	stop := context.AfterFunc(ctx, func() {
		p.fail(fmt.Errorf("exec: external cancellation: %w", context.Cause(ctx)))
	})
	defer stop()
	for _, launch := range p.launched {
		launch()
	}
	p.launched = nil
	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-p.ctx.Done():
		<-done
	}
	p.cancel(nil)
	p.watchers.Wait()
	for _, e := range p.edges {
		e.close()
	}
	return p.err
}
