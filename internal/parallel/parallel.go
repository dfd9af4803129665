// Package parallel implements ShardedPJoin: a hash-partitioned parallel
// composition of N independent core.PJoin instances, the repository's
// first concurrent hot path.
//
// # Architecture
//
// The join-key space is partitioned by hash: a router (the caller's
// Process goroutine) hashes each data tuple's join attribute once and
// forwards the tuple to the shard owning that hash slice over a bounded
// queue of fixed depth (queueSize messages; a full queue blocks the
// router), so every pair of matching tuples meets inside exactly one
// shard. Each shard runs a full, unmodified core.PJoin — its own hash
// buckets, punctuation sets, purge buffers, spill stores and event
// monitor — on its own goroutine, which keeps the single-join invariants
// (operators are single-threaded state machines) intact per shard.
//
// # Punctuation routing and merge alignment
//
// Punctuations are broadcast to every shard: a punctuation describes a
// slice of the key space, and each shard applies it to the partition it
// owns (a shard holding no matching tuples simply purges nothing and can
// propagate the punctuation immediately). On the way out the shards'
// propagated punctuations must be re-aligned: the sharded join may only
// promise "no more results matching p" downstream once EVERY shard has
// made that promise, because any shard still holding a matching tuple
// could still emit a result. The merge stage therefore keeps a
// per-punctuation countdown, forwarding a punctuation exactly when the
// last of the N shards propagates it. Result tuples are never held up:
// they flow through the merge as they are produced, serialised only by
// the output mutex.
//
// Result-tuple output is always exactly the single instance's (matching
// pairs meet in exactly one shard). Propagated punctuations are exactly
// the single instance's too, with one caveat: when punctuations span
// SEVERAL join keys (range patterns), set core.Config.RetainPropagated.
// Default PJoin removes a punctuation from its set upon propagation; a
// shard owning only part of a range reaches count zero (and forgets the
// punctuation) earlier than the whole join would, losing its purge and
// drop-on-the-fly power over later covered arrivals in that shard.
// Retention makes set membership independent of propagation timing, so
// every shard's counts are an exact partition of the single instance's
// and the merged output multiset matches a RetainPropagated single
// instance on any valid input. Single-key (constant) punctuations need
// no retention: a key's tuples all live in one shard, which then
// behaves exactly like the single instance restricted to its slice.
//
// # Timestamp contract
//
// core.PJoin's duplicate-avoidance bookkeeping requires strictly
// increasing item timestamps per instance. The executor restamps items
// on the sharded operator's driver goroutine (one strictly increasing
// sequence), the router dispatches in arrival order, and each shard's
// queue is FIFO — so every shard observes a subsequence of a strictly
// increasing sequence, which is again strictly increasing. This is what
// makes the restamping contract shard-safe without any shared clock.
// The stamp is Item.Ts: the router passes items through as they are,
// tuples untouched, and the shard's PJoin stamps the header it stores
// (core.PJoin.Process). The one item it does not pass through is a
// borrowed one (an upstream join's result living in the batch that
// delivered it): a shard processes it after ProcessBatch has returned,
// so the router routes its own copy (stream.ResultSlab.Keep).
//
// # Metrics
//
// Shard work counters are owned by the shard goroutines; Metrics,
// StateTuples and ShardStats snapshot each shard under its lock and sum
// with joinbase.Metrics.Add, so monitoring a running sharded join is
// race-free (verified by `go test -race`, see Makefile `check`).
package parallel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pjoin/internal/core"
	"pjoin/internal/joinbase"
	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/op"
	"pjoin/internal/store"
	"pjoin/internal/stream"
)

// queueSize is the capacity of a shard's input queue, in messages (a
// batch of routed tuples, or one broadcast punctuation). The router
// blocks when a shard's queue is full, which is the operator's
// back-pressure.
const queueSize = 1024

// Config configures a ShardedPJoin: how many shards, what each shard's
// join is, and what observes them. The shard queues' depth is not a
// setting (queueSize).
type Config struct {
	// Shards is the number of key-space partitions (>= 1). Shards == 1
	// is a single PJoin behind the routing/merge machinery (useful as a
	// baseline; the equivalence tests exploit it).
	Shards int
	// Join is the per-shard PJoin configuration. SpillA/SpillB must be
	// nil: every shard owns fresh spill stores. NumBuckets and
	// Thresholds (purge, memory, propagation) apply per shard. Join.Instr
	// must be nil too: shards receive handles derived from Instr.
	Join core.Config
	// SpillFactory, when non-nil, supplies each shard's spill stores:
	// it is called with (shard, side) for side 0 (A) and 1 (B) of every
	// shard. Shards must never share a store, so the factory returns a
	// fresh one per call. Nil keeps the default (per-shard MemSpill via
	// core.New). This is how cached or fault-injected spill stacks are
	// threaded under sharding.
	SpillFactory func(shard, side int) store.SpillStore
	// Instr is the sharded operator's observability handle. Tracing is
	// forwarded to the shards (each stamps its shard index); the live
	// sampler is NOT — shard goroutines must never run the aggregated
	// gauges, which take the shard locks. The router goroutine ticks the
	// sampler instead.
	Instr *obs.Instr
}

type msgKind uint8

const (
	msgItem msgKind = iota
	msgBatch
	msgIdle
	msgPull
	msgFinish
)

// message is one unit of work queued to a shard. Tuples always travel as
// a msgBatch: a pooled batch the router filled and the shard goroutine
// recycles after processing. A msgItem carries one broadcast punctuation
// or EOS in item.
type message struct {
	kind  msgKind
	port  int
	item  stream.Item
	batch *stream.Batch
	now   stream.Time
}

// shard is one key-space partition: a PJoin instance plus its queue.
type shard struct {
	pj   *core.PJoin
	in   chan message
	done chan struct{}

	// mu is held by the shard goroutine around every pj call and by
	// metric readers around every pj snapshot; it is the only
	// synchronisation of the shard's join state.
	mu sync.Mutex //pjoin:lockrank 20

	// failed is shard-goroutine-local: after an error the goroutine
	// drains its queue without processing so the router never blocks.
	failed bool

	routed    atomic.Int64 // data tuples routed here (router-side)
	highWater atomic.Int64 // max observed queue depth after a send
}

// ShardedPJoin is the hash-partitioned parallel PJoin operator. It
// implements op.Operator (two ports, like core.PJoin) and the
// executor's PropagationPuller; Process/OnIdle/Finish must be called
// from a single goroutine, exactly as for any other operator — the
// concurrency lives behind the router.
type ShardedPJoin struct {
	cfg    Config
	out    op.Emitter
	outSc  *stream.Schema
	merge  *merger
	shards []*shard
	attrs  [2]int
	instr  *obs.Instr
	// lat holds the router-level punctuation-propagation-delay histogram:
	// the join-wide delay is arrival-at-router → merge-alignment-complete,
	// one sample per forwarded punctuation (shard-level PunctDelay would
	// give N samples per punctuation and measure only shard-local delay).
	// Result/Purge latencies live in the shards; Latencies() merges them.
	lat *obs.Lat

	eos      [2]bool
	finished bool

	// shardBufs are the router's per-shard tuple accumulation buffers:
	// ProcessBatch collects each shard's run of routed tuples here and
	// flushes one msgBatch per shard instead of one channel send per
	// tuple. Buffers are only ever non-nil inside one ProcessBatch
	// call (every exit path flushes), so OnIdle / pull / Finish — which
	// enqueue directly — can never overtake a buffered tuple and break
	// the per-shard monotone timestamp contract. Router goroutine only.
	shardBufs []*stream.Batch
	pool      stream.BatchPool
	// kept holds the router's copies of borrowed tuples: a routed tuple
	// is processed on a shard goroutine after ProcessBatch has returned.
	kept stream.ResultSlab

	errMu sync.Mutex //pjoin:lockrank leaf
	err   error
}

var (
	_ op.Operator       = (*ShardedPJoin)(nil)
	_ op.BatchProcessor = (*ShardedPJoin)(nil)
)

// New builds a ShardedPJoin with cfg.Shards independent PJoin instances
// and starts their goroutines. The shards are live from this point on;
// the operator contract (EOS on both ports, then Finish) shuts them
// down.
func New(cfg Config, out op.Emitter) (*ShardedPJoin, error) {
	if out == nil {
		return nil, fmt.Errorf("parallel: ShardedPJoin needs an output emitter")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("parallel: need at least one shard, got %d", cfg.Shards)
	}
	if cfg.Join.SpillA != nil || cfg.Join.SpillB != nil {
		return nil, fmt.Errorf("parallel: per-shard spill stores are created internally; leave SpillA/SpillB nil")
	}
	if cfg.Join.Instr != nil {
		return nil, fmt.Errorf("parallel: per-shard instrumentation is derived internally; set Config.Instr, leave Join.Instr nil")
	}
	j := &ShardedPJoin{
		cfg:   cfg,
		out:   out,
		attrs: [2]int{cfg.Join.AttrA, cfg.Join.AttrB},
		instr: cfg.Instr,
		lat:   obs.NewLat(),
	}
	j.merge = &merger{out: out, n: cfg.Shards, in: cfg.Instr, lat: j.lat, pending: make(map[string]*pendingPunct)}
	shardName := cfg.Instr.Op()
	if shardName == "" {
		shardName = "pjoin"
	}
	for i := 0; i < cfg.Shards; i++ {
		shardCfg := cfg.Join
		// Tracing only: a shard goroutine running the aggregated gauges
		// (which lock every shard) would deadlock against itself.
		shardCfg.Instr = cfg.Instr.WithoutLive().Derive(shardName, i)
		if cfg.SpillFactory != nil {
			shardCfg.SpillA = cfg.SpillFactory(i, 0)
			shardCfg.SpillB = cfg.SpillFactory(i, 1)
		}
		pj, err := core.New(shardCfg, j.merge.emitter())
		if err != nil {
			// Unwind shards already started so their goroutines exit.
			for _, sh := range j.shards {
				close(sh.in)
			}
			return nil, fmt.Errorf("parallel: shard %d: %w", i, err)
		}
		sh := &shard{pj: pj, in: make(chan message, queueSize), done: make(chan struct{})}
		j.shards = append(j.shards, sh)
		go j.runShard(sh)
	}
	j.outSc = j.shards[0].pj.OutSchema()
	j.shardBufs = make([]*stream.Batch, cfg.Shards)
	j.registerGauges()
	return j, nil
}

// registerGauges exposes the aggregated (cross-shard) live metrics. The
// gauges snapshot shards under their locks; they run only from the
// router goroutine (Instr.Tick in Process), never from a shard.
func (j *ShardedPJoin) registerGauges() {
	lv := j.instr.Live()
	if lv == nil {
		return
	}
	name := j.instr.Op()
	if name == "" {
		name = j.Name()
	}
	lv.Register(name+".state_tuples", func() float64 { return float64(j.StateTuples()) })
	lv.Register(name+".mem_groups", func() float64 { return float64(j.MemGroups()) })
	lv.Register(name+".route_skew", func() float64 { return Skew(j.ShardStats()) })
	lv.Register(name+".pending_puncts", func() float64 { return float64(j.PendingPunctuations()) })
	lv.Register(name+".tuples_out", func() float64 { return float64(j.Metrics().TuplesOut) })
	lv.Register(name+".puncts_out", func() float64 {
		j.merge.mu.Lock()
		defer j.merge.mu.Unlock()
		return float64(j.merge.punctsOut)
	})
}

// runShard is a shard's goroutine: it applies queued work to the
// shard's PJoin under the shard lock until the queue closes.
func (j *ShardedPJoin) runShard(sh *shard) {
	defer close(sh.done)
	for msg := range sh.in {
		if sh.failed {
			if msg.kind == msgBatch {
				j.pool.Put(msg.batch)
			}
			continue // drain so the router never blocks on a dead shard
		}
		sh.mu.Lock()
		var err error
		switch msg.kind {
		case msgItem:
			err = sh.pj.Process(msg.port, msg.item, msg.now)
		case msgBatch:
			err = sh.pj.ProcessBatch(msg.port, msg.batch.Items, msg.now)
		case msgIdle:
			_, err = sh.pj.OnIdle(msg.now)
		case msgPull:
			err = sh.pj.RequestPropagation(msg.now)
		case msgFinish:
			err = sh.pj.Finish(msg.now)
		}
		sh.mu.Unlock()
		if msg.kind == msgBatch {
			j.pool.Put(msg.batch)
		}
		if err != nil {
			sh.failed = true
			j.fail(err)
		}
	}
}

func (j *ShardedPJoin) fail(err error) {
	j.errMu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.errMu.Unlock()
}

func (j *ShardedPJoin) errNow() error {
	j.errMu.Lock()
	defer j.errMu.Unlock()
	return j.err
}

// Name implements op.Operator.
func (j *ShardedPJoin) Name() string {
	return fmt.Sprintf("sharded-pjoin[%d]", len(j.shards))
}

// NumPorts implements op.Operator.
func (j *ShardedPJoin) NumPorts() int { return 2 }

// OutSchema implements op.Operator.
func (j *ShardedPJoin) OutSchema() *stream.Schema { return j.outSc }

// Shards returns the shard count.
func (j *ShardedPJoin) Shards() int { return len(j.shards) }

// send enqueues work to a shard, blocking under back-pressure, and
// tracks the queue-depth high-water mark. Only the router goroutine
// sends, so the load/store pair on highWater needs no CAS.
func (j *ShardedPJoin) send(sh *shard, m message) {
	sh.in <- m
	if d := int64(len(sh.in)); d > sh.highWater.Load() {
		sh.highWater.Store(d)
	}
}

// Process implements op.Operator: the item is routed as a batch of one.
func (j *ShardedPJoin) Process(port int, it stream.Item, now stream.Time) error {
	one := [1]stream.Item{it}
	return j.ProcessBatch(port, one[:], now)
}

// ProcessBatch implements op.BatchProcessor for the router: data tuples
// are routed to the shard owning their join key, accumulating each
// shard's run into a per-shard buffer and sending one msgBatch per shard
// instead of one queue operation per tuple. Punctuations and EOS are
// batch boundaries: every buffered tuple is flushed to its shard first,
// then the item is broadcast to every shard — which preserves the
// per-shard FIFO of tuples before the punctuation.
func (j *ShardedPJoin) ProcessBatch(port int, items []stream.Item, now stream.Time) error {
	if err := op.ValidatePort(j.Name(), port, 2); err != nil {
		return err
	}
	if j.finished {
		return fmt.Errorf("parallel: %s: Process after Finish", j.Name())
	}
	if err := j.errNow(); err != nil {
		return fmt.Errorf("parallel: %s: shard failed: %w", j.Name(), err)
	}
	j.lat.RecordBatchFill(len(items))
	// The router goroutine owns the live sampler: shard handles are
	// trace-only (see Config.Instr), so the aggregated gauges run here.
	j.instr.Tick(now)
	attr := j.attrs[port]
	for _, it := range items {
		if it.Kind != stream.KindTuple {
			j.flushShardBufs(port)
			if err := j.broadcast(port, it); err != nil {
				return err
			}
			continue
		}
		if len(it.Tuple.Values) <= attr {
			j.flushShardBufs(port)
			return fmt.Errorf("parallel: %s: tuple width %d lacks join attribute %d",
				j.Name(), len(it.Tuple.Values), attr)
		}
		s := int(it.Tuple.Values[attr].Hash() % uint64(len(j.shards)))
		j.shards[s].routed.Add(1)
		if it.Tuple.Span != 0 {
			j.instr.Span(span.KindTupleRoute, it.Tuple.Span, it.Ts, port, int64(s), 0, 0, 0)
		}
		if j.shardBufs[s] == nil {
			j.shardBufs[s] = j.pool.Get(len(items))
		}
		j.shardBufs[s].Items = append(j.shardBufs[s].Items, j.kept.Keep(it))
	}
	j.flushShardBufs(port)
	return nil
}

// flushShardBufs sends every per-shard buffer as one msgBatch (ownership
// passes to the shard goroutine, which recycles it).
func (j *ShardedPJoin) flushShardBufs(port int) {
	for s, b := range j.shardBufs {
		if b == nil {
			continue
		}
		j.shardBufs[s] = nil
		j.send(j.shards[s], message{kind: msgBatch, port: port, batch: b, now: b.Items[len(b.Items)-1].Ts})
	}
}

// broadcast sends a punctuation or EOS to every shard.
func (j *ShardedPJoin) broadcast(port int, it stream.Item) error {
	switch it.Kind {
	case stream.KindPunct:
		// Note the arrival time under the merge key BEFORE broadcasting,
		// so the merger can measure arrival → alignment-complete delay
		// when the countdown finishes. Gated on propagation being on:
		// otherwise shards never propagate and entries would accumulate.
		inSc := j.cfg.Join.SchemaA
		if port == 1 {
			inSc = j.cfg.Join.SchemaB
		}
		if !j.cfg.Join.DisablePropagation && !it.Punct.IsEmpty() && it.Punct.Width() == inSc.Width() {
			outP, err := core.OutputPunctuation(j.cfg.Join.SchemaA, j.cfg.Join.SchemaB, port, it.Punct)
			if err != nil {
				return fmt.Errorf("parallel: %s: %w", j.Name(), err)
			}
			// One provenance trace per punctuation join-wide: the router
			// allocates it before broadcasting so every shard's lifecycle
			// spans (arrival, purges, shard-local propagation) attach to
			// the SAME trace, and the merger closes it with the terminal
			// punct_emit when alignment completes. The router-level
			// arrive span (Shard = -1, N = 0) marks trace birth.
			var trace uint64
			if j.instr.Enabled() {
				trace = span.NewID()
				it.Span = trace
				j.instr.Span(span.KindPunctArrive, trace, it.Ts, port, 0, 0, 0, 0)
			}
			j.merge.notePunctArrival(outP.String(), it.Ts, trace)
		}
	case stream.KindEOS:
		if j.eos[port] {
			return fmt.Errorf("parallel: %s: duplicate EOS on port %d", j.Name(), port)
		}
		j.eos[port] = true
	default:
		return fmt.Errorf("parallel: %s: unknown item kind %v", j.Name(), it.Kind)
	}
	for _, sh := range j.shards {
		j.send(sh, message{kind: msgItem, port: port, item: it, now: it.Ts})
	}
	return nil
}

// OnIdle implements op.Operator: the idle signal is offered to every
// shard without blocking (a shard with queued work is not idle). Work
// triggered by it happens asynchronously, so OnIdle itself reports
// false.
func (j *ShardedPJoin) OnIdle(now stream.Time) (bool, error) {
	if j.finished {
		return false, nil
	}
	if err := j.errNow(); err != nil {
		return false, fmt.Errorf("parallel: %s: shard failed: %w", j.Name(), err)
	}
	for _, sh := range j.shards {
		select {
		case sh.in <- message{kind: msgIdle, now: now}:
		default:
		}
	}
	return false, nil
}

// RequestPropagation implements the executor's pull-mode propagation:
// the request is broadcast so every shard releases what it can, and the
// merge forwards whatever completes its countdown.
func (j *ShardedPJoin) RequestPropagation(now stream.Time) error {
	if j.finished {
		return fmt.Errorf("parallel: %s: RequestPropagation after Finish", j.Name())
	}
	if err := j.errNow(); err != nil {
		return err
	}
	for _, sh := range j.shards {
		j.send(sh, message{kind: msgPull, now: now})
	}
	return nil
}

// Finish implements op.Operator: it finishes every shard (final disk
// passes, index builds and propagation run inside the shards), waits
// for them to drain, and emits the single downstream EOS.
func (j *ShardedPJoin) Finish(now stream.Time) error {
	if j.finished {
		return fmt.Errorf("parallel: %s: double Finish", j.Name())
	}
	if !j.eos[0] || !j.eos[1] {
		return fmt.Errorf("parallel: %s: Finish before EOS on both ports", j.Name())
	}
	for _, sh := range j.shards {
		j.send(sh, message{kind: msgFinish, now: now})
		close(sh.in)
	}
	for _, sh := range j.shards {
		<-sh.done
	}
	j.finished = true
	if err := j.errNow(); err != nil {
		return fmt.Errorf("parallel: %s: %w", j.Name(), err)
	}
	j.merge.mu.Lock()
	eos, ts := j.merge.eosSeen, j.merge.maxTs
	j.merge.mu.Unlock()
	if eos != len(j.shards) {
		return fmt.Errorf("parallel: %s: %d of %d shards emitted EOS", j.Name(), eos, len(j.shards))
	}
	if now > ts {
		ts = now
	}
	if lv := j.instr.Live(); lv != nil {
		lv.Flush(ts) // final aggregated sample; all shards are drained
	}
	return j.out.Emit(stream.EOSItem(ts))
}

// Metrics returns the work counters summed across shards. PunctsIn is
// normalised back to stream-level counts (every shard sees every
// broadcast punctuation); PunctsOut is the number of punctuations that
// completed merge alignment and were forwarded downstream. While shards
// are mid-flight the snapshot is a consistent-per-shard approximation;
// after Finish it is exact.
func (j *ShardedPJoin) Metrics() joinbase.Metrics {
	var total joinbase.Metrics
	for _, sh := range j.shards {
		sh.mu.Lock()
		m := sh.pj.Metrics()
		sh.mu.Unlock()
		total.Add(m)
	}
	n := int64(len(j.shards))
	total.PunctsIn[0] /= n
	total.PunctsIn[1] /= n
	j.merge.mu.Lock()
	total.PunctsOut = j.merge.punctsOut
	j.merge.mu.Unlock()
	return total
}

// Latencies returns the join-wide latency view: Result, Purge,
// DiskChunk and DiskPass are the shard histograms merged (each result,
// purge run, disk chunk and disk pass belongs to exactly one shard, so
// the merged counts reconcile one-to-one with TuplesOut, PurgeRuns,
// DiskChunks and DiskPasses); PunctDelay is the router-level histogram — one sample per
// punctuation that completed merge alignment and was forwarded, so its
// count equals Metrics().PunctsOut exactly. Shard-local PunctDelay
// samples are intentionally excluded: they measure per-shard
// propagation, not the join-wide promise.
func (j *ShardedPJoin) Latencies() obs.LatSnapshot {
	// The router's own rows (obs.HistDef.Router), then every shard's.
	out := j.lat.Snapshot()
	for _, sh := range j.shards {
		sh.mu.Lock()
		s := sh.pj.Latencies()
		sh.mu.Unlock()
		out.MergeShard(s)
	}
	return out
}

// ShardLatencies snapshots each shard's own histograms (shard-local
// PunctDelay included) for skew diagnostics.
func (j *ShardedPJoin) ShardLatencies() []obs.LatSnapshot {
	out := make([]obs.LatSnapshot, len(j.shards))
	for i, sh := range j.shards {
		sh.mu.Lock()
		out[i] = sh.pj.Latencies()
		sh.mu.Unlock()
	}
	return out
}

// StateTuples returns the total tuples held across all shard states.
func (j *ShardedPJoin) StateTuples() int {
	total := 0
	for _, sh := range j.shards {
		sh.mu.Lock()
		total += sh.pj.StateTuples()
		sh.mu.Unlock()
	}
	return total
}

// MemGroups returns the number of distinct join keys resident in memory
// across all shard states (both sides).
func (j *ShardedPJoin) MemGroups() int {
	total := 0
	for _, sh := range j.shards {
		sh.mu.Lock()
		a, b := sh.pj.StateStats()
		sh.mu.Unlock()
		total += a.MemGroups + b.MemGroups
	}
	return total
}

// ShardStats is the per-shard monitoring view of a sharded join.
type ShardStats struct {
	Shard          int
	Routed         int64            // data tuples routed to this shard
	QueueHighWater int              // max observed input queue depth
	StateTuples    int              // tuples currently in the shard's state
	Join           joinbase.Metrics // the shard's own work counters
}

// ShardStats snapshots every shard.
func (j *ShardedPJoin) ShardStats() []ShardStats {
	out := make([]ShardStats, len(j.shards))
	for i, sh := range j.shards {
		sh.mu.Lock()
		m := sh.pj.Metrics()
		st := sh.pj.StateTuples()
		sh.mu.Unlock()
		out[i] = ShardStats{
			Shard:          i,
			Routed:         sh.routed.Load(),
			QueueHighWater: int(sh.highWater.Load()),
			StateTuples:    st,
			Join:           m,
		}
	}
	return out
}

// Skew summarises routing balance: the ratio of the most-loaded shard's
// routed tuples to the mean (1.0 = perfectly balanced). Zero routed
// tuples yields 0.
func Skew(stats []ShardStats) float64 {
	if len(stats) == 0 {
		return 0
	}
	var sum, max int64
	for _, s := range stats {
		sum += s.Routed
		if s.Routed > max {
			max = s.Routed
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(stats))
	return float64(max) / mean
}

// merger is the fan-in stage: it serialises shard output into the
// downstream emitter and re-aligns propagated punctuations with a
// per-punctuation countdown.
type merger struct {
	out op.Emitter
	n   int
	in  *obs.Instr
	lat *obs.Lat // router-owned; PunctDelay recorded at forward

	mu        sync.Mutex //pjoin:lockrank 30
	pending   map[string]*pendingPunct
	punctsOut int64
	eosSeen   int
	maxTs     stream.Time
}

// pendingPunct is one punctuation's alignment state: how many shards
// have yet to propagate it and the latest shard emission timestamp
// (the forwarded punctuation carries the time the promise became true
// join-wide).
type pendingPunct struct {
	remaining int
	ts        stream.Time

	// arrivals is the FIFO of router arrival times noted before each
	// broadcast of this pattern (notePunctArrival). A punctuation
	// pattern can legitimately arrive more than once — a redundant
	// re-promise contained in an earlier one renders identically — and
	// alignments of the same key complete in arrival order, so each
	// completed countdown pops the front entry for its delay sample.
	arrivals []stream.Time
	// traces is the provenance-trace FIFO, popped in lockstep with
	// arrivals: the router allocates one trace per broadcast punctuation
	// (zero when spans are off) and the merger closes it with the
	// join-wide terminal punct_emit span at forward time.
	traces []uint64
}

// notePunctArrival records a broadcast punctuation's arrival time (and
// provenance trace, zero when spans are off) under its merge key,
// creating the countdown entry eagerly so the forward can measure
// arrival → alignment-complete delay.
func (m *merger) notePunctArrival(key string, ts stream.Time, trace uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pp := m.pending[key]
	if pp == nil {
		pp = &pendingPunct{remaining: m.n}
		m.pending[key] = pp
	}
	pp.arrivals = append(pp.arrivals, ts)
	pp.traces = append(pp.traces, trace)
}

// emitter returns the op.Emitter handed to one shard's PJoin. All
// shards' emitters share the merger; calls are serialised by merge.mu.
func (m *merger) emitter() op.Emitter {
	return op.EmitterFunc(func(it stream.Item) error {
		switch it.Kind {
		case stream.KindTuple:
			m.mu.Lock()
			defer m.mu.Unlock()
			return m.out.Emit(it)
		case stream.KindPunct:
			m.mu.Lock()
			defer m.mu.Unlock()
			key := it.Punct.String()
			pp := m.pending[key]
			if pp == nil {
				pp = &pendingPunct{remaining: m.n}
				m.pending[key] = pp
			}
			pp.remaining--
			if it.Ts > pp.ts {
				pp.ts = it.Ts
			}
			if pp.remaining > 0 {
				return nil // some shard may still produce matching results
			}
			fwdTs := pp.ts
			m.punctsOut++
			var trace uint64
			arriveTs := fwdTs
			if len(pp.arrivals) > 0 {
				arriveTs = pp.arrivals[0]
				m.lat.RecordPunctDelay(fwdTs, arriveTs)
				pp.arrivals = pp.arrivals[1:]
			}
			if len(pp.traces) > 0 {
				trace = pp.traces[0]
				pp.traces = pp.traces[1:]
			}
			if len(pp.arrivals) > 0 {
				// Another alignment of the same pattern is already in
				// flight (a duplicate arrived before the first completed):
				// rearm the countdown instead of deleting, or the next
				// shard emission would recreate the entry without its
				// noted arrival time.
				pp.remaining = m.n
				pp.ts = 0
			} else {
				delete(m.pending, key)
			}
			outIt := stream.PunctItem(it.Punct, fwdTs)
			if trace != 0 {
				// The join-wide terminal span (Shard = -1): the shards'
				// own punct_emit spans carry shard >= 0 and count shard
				// alignments, not downstream punctuations.
				outIt.Span = trace
				m.in.Span(span.KindPunctEmit, trace, fwdTs, -1, int64(m.n), 0, 0, int64(fwdTs)-int64(arriveTs))
			}
			return m.out.Emit(outIt)
		case stream.KindEOS:
			// Shard EOS is bookkeeping only; ShardedPJoin.Finish emits
			// the single downstream EOS after all shards drained.
			m.mu.Lock()
			m.eosSeen++
			if it.Ts > m.maxTs {
				m.maxTs = it.Ts
			}
			m.mu.Unlock()
			return nil
		default:
			return fmt.Errorf("parallel: merge: unknown item kind %v", it.Kind)
		}
	})
}

// PendingPunctuations returns how many punctuations are currently held
// by the merge waiting for stragglers (propagated by some but not all
// shards) — a liveness metric for the alignment invariant.
func (j *ShardedPJoin) PendingPunctuations() int {
	j.merge.mu.Lock()
	defer j.merge.mu.Unlock()
	return len(j.merge.pending)
}
