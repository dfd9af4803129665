// Package parallel implements ShardedPJoin: a hash-partitioned parallel
// composition of N independent core.PJoin instances, built from three
// parts, none with a goroutine, a channel or a batch pool of its own:
//
//   - The router (ShardedPJoin, a two-port operator) hashes each tuple's
//     join attribute once and hands the tuple to the shard owning the
//     hash, so every matching pair meets in exactly one shard; it
//     broadcasts punctuations and EOS and notes each punctuation's arrival.
//   - The shards: N unmodified core.PJoin instances.
//   - Align, fed by the shards, passes results through, forwards a
//     propagated punctuation once the last shard has propagated it (only
//     then is "no more results matching p" true join-wide) and ends the
//     output with one EOS.
//
// The parts call each other directly, on the caller's goroutine: one
// ProcessBatch per routed run (a shard's tuples between two punctuations
// of one ProcessBatch call, in order, now = the run's last timestamp), one
// Process per broadcast item. The result is an ordinary single-threaded,
// deterministic operator: what direct drives use (the oracle, scale1,
// benchmark/), and what an exec pipeline spawns whole, as one operator.
//
// Results are exactly the single instance's, and so are propagated
// punctuations, ranges spanning several shards' keys included: a shard
// releases its copy of a punctuation at its own count zero, and the copy
// stays in force — purging and dropping later arrivals in the shard's
// slice — until it owes nothing (punct.Set.Applied, DESIGN.md §5).
package parallel

import (
	"fmt"

	"pjoin/internal/core"
	"pjoin/internal/joinbase"
	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/op"
	"pjoin/internal/store"
	"pjoin/internal/stream"
)

// Config configures a ShardedPJoin: how many shards, what each shard's
// join is, and what observes them.
type Config struct {
	// Shards is the number of key-space partitions (>= 1). Shards == 1
	// is a single PJoin behind the router and align.
	Shards int
	// Join is the per-shard PJoin configuration; NumBuckets and
	// Thresholds apply per shard. SpillA, SpillB and Instr must be nil:
	// every shard gets fresh spill stores and a handle derived from Instr.
	Join core.Config
	// SpillFactory, when non-nil, supplies the spill stores of side 0 (A)
	// and 1 (B) of every shard, a fresh one per call (cached or
	// fault-injected stacks). Nil keeps core.New's per-shard MemSpill.
	SpillFactory func(shard, side int) store.SpillStore
	// Instr is the sharded operator's observability handle. Tracing is
	// forwarded to the shards (each stamps its shard index). The live
	// sampler is not: the router ticks it and registers the aggregated
	// gauges, which read every shard.
	Instr *obs.Instr
}

// ShardedPJoin is the router of a sharded join and owns its shards and
// align: an op.BatchProcessor with two ports, like core.PJoin, and pullable.
type ShardedPJoin struct {
	cfg    Config
	shards []*core.PJoin
	align  *align
	attrs  [2]int
	instr  *obs.Instr
	// lat holds the router-level histograms: batch fill, and the
	// join-wide punctuation delay (arrival here → alignment complete),
	// which align records. Latencies merges the shards' into it.
	lat *obs.Lat

	routed []int64 // data tuples routed to each shard
	// Routing scratch: each tuple's shard, and one shard's run. run is
	// cleared before the call that filled it returns.
	shardOf []int
	run     []stream.Item

	eos      [2]bool
	finished bool
}

var _ op.BatchProcessor = (*ShardedPJoin)(nil)

// New builds a sharded join whose router, shards and align call each
// other directly, on the caller's goroutine.
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
		cfg:    cfg,
		attrs:  [2]int{cfg.Join.AttrA, cfg.Join.AttrB},
		instr:  cfg.Instr,
		lat:    obs.NewLat(),
		routed: make([]int64, cfg.Shards),
	}
	j.align = &align{out: out, n: cfg.Shards, instr: cfg.Instr, lat: j.lat, pending: make(map[string]*pendingPunct)}
	shardName := cfg.Instr.Op()
	if shardName == "" {
		shardName = "pjoin"
	}
	for i := 0; i < cfg.Shards; i++ {
		shardCfg := cfg.Join
		shardCfg.Instr = cfg.Instr.WithoutLive().Derive(shardName, i)
		if cfg.SpillFactory != nil {
			shardCfg.SpillA = cfg.SpillFactory(i, 0)
			shardCfg.SpillB = cfg.SpillFactory(i, 1)
		}
		pj, err := core.New(shardCfg, alignPort{j.align, i})
		if err != nil {
			return nil, fmt.Errorf("parallel: shard %d: %w", i, err)
		}
		j.shards = append(j.shards, pj)
	}
	j.registerGauges()
	return j, nil
}

// registerGauges exposes the aggregated live metrics; the router's Tick
// runs them.
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
	lv.Register(name+".mem_groups", func() float64 {
		total := 0
		for _, pj := range j.shards {
			a, b := pj.StateStats()
			total += a.MemGroups + b.MemGroups
		}
		return float64(total)
	})
	lv.Register(name+".route_skew", func() float64 { return Skew(j.ShardStats()) })
	lv.Register(name+".pending_puncts", func() float64 { return float64(j.PendingPunctuations()) })
	lv.Register(name+".tuples_out", func() float64 { return float64(j.Metrics().TuplesOut) })
	lv.Register(name+".puncts_out", func() float64 { return float64(j.align.punctsOut) })
}

// Name implements op.Operator.
func (j *ShardedPJoin) Name() string { return fmt.Sprintf("sharded-pjoin[%d]", len(j.shards)) }

// NumPorts implements op.Operator.
func (j *ShardedPJoin) NumPorts() int { return 2 }

// OutSchema implements op.Operator.
func (j *ShardedPJoin) OutSchema() *stream.Schema { return j.shards[0].OutSchema() }

// AlignInputs implements exec.EventTimeAligned: like one PJoin, the
// shards keep each tuple until the opposite stream's punctuation purges
// it, so state grows with how far one input leads the other.
func (j *ShardedPJoin) AlignInputs() {}

// Shards returns the shard count.
func (j *ShardedPJoin) Shards() int { return len(j.shards) }

// shardErr names the shard an error came from.
func (j *ShardedPJoin) shardErr(s int, err error) error {
	return fmt.Errorf("parallel: %s: shard %d: %w", j.Name(), s, err)
}

// Process implements op.Operator: the item is routed as a batch of one.
func (j *ShardedPJoin) Process(port int, it stream.Item, now stream.Time) error {
	one := [1]stream.Item{it}
	return j.ProcessBatch(port, one[:], now)
}

// ProcessBatch implements op.BatchProcessor. Punctuations and EOS split
// the batch into runs of tuples; each run is routed before the item that
// ends it is broadcast, so every shard sees its tuples and the
// punctuations in input order.
func (j *ShardedPJoin) ProcessBatch(port int, items []stream.Item, now stream.Time) error {
	if err := op.ValidatePort(j.Name(), port, 2); err != nil {
		return err
	}
	if j.finished {
		return fmt.Errorf("parallel: %s: Process after Finish", j.Name())
	}
	j.lat.RecordBatchFill(len(items))
	j.instr.Tick(now) // shard handles are trace-only: the gauges run here
	attr := j.attrs[port]
	lo := 0
	for i, it := range items {
		if it.Kind == stream.KindTuple && len(it.Tuple.Values) > attr {
			continue
		}
		if err := j.route(port, items[lo:i]); err != nil {
			return err
		}
		lo = i + 1
		if it.Kind == stream.KindTuple {
			return fmt.Errorf("parallel: %s: tuple width %d lacks join attribute %d",
				j.Name(), len(it.Tuple.Values), attr)
		}
		if err := j.broadcast(port, it); err != nil {
			return err
		}
	}
	return j.route(port, items[lo:])
}

// route hands a run of tuples to their shards: each tuple is hashed once,
// then every shard owning some of them gets one ProcessBatch with its
// tuples in arrival order, in shard order.
func (j *ShardedPJoin) route(port int, tuples []stream.Item) error {
	if len(tuples) == 0 {
		return nil
	}
	if cap(j.shardOf) < len(tuples) {
		j.shardOf = make([]int, len(tuples))
		j.run = make([]stream.Item, 0, len(tuples))
	}
	shardOf := j.shardOf[:len(tuples)]
	for i, it := range tuples {
		s := int(it.Tuple.Values[j.attrs[port]].Hash() % uint64(len(j.shards)))
		shardOf[i] = s
		j.routed[s]++
		if it.Tuple.Span != 0 {
			j.instr.Span(span.KindTupleRoute, it.Tuple.Span, it.Ts, port, int64(s), 0, 0, 0)
		}
	}
	for s, pj := range j.shards {
		run := j.run[:0]
		for i, it := range tuples {
			if shardOf[i] == s {
				run = append(run, it)
			}
		}
		if len(run) == 0 {
			continue
		}
		err := pj.ProcessBatch(port, run, run[len(run)-1].Ts)
		clear(run)
		if err != nil {
			return j.shardErr(s, err)
		}
	}
	return nil
}

// broadcast hands a punctuation or EOS to every shard.
func (j *ShardedPJoin) broadcast(port int, it stream.Item) error {
	switch it.Kind {
	case stream.KindPunct:
		// Note the arrival for align BEFORE broadcasting, so the delay can
		// be measured when the countdown finishes; only while shards
		// propagate, or entries would accumulate.
		inSc := j.cfg.Join.SchemaA
		if port == 1 {
			inSc = j.cfg.Join.SchemaB
		}
		if !j.cfg.Join.DisablePropagation && !it.Punct.IsEmpty() && it.Punct.Width() == inSc.Width() {
			outP, err := core.OutputPunctuation(j.cfg.Join.SchemaA, j.cfg.Join.SchemaB, port, it.Punct)
			if err != nil {
				return fmt.Errorf("parallel: %s: %w", j.Name(), err)
			}
			// One provenance trace per punctuation join-wide, born here
			// (arrive span, Shard = -1): every shard's lifecycle spans
			// attach to it, and align closes it with the terminal
			// punct_emit.
			var trace uint64
			if j.instr.Enabled() {
				trace = span.NewID()
				it.Span = trace
				j.instr.Span(span.KindPunctArrive, trace, it.Ts, port, 0, 0, 0, 0)
			}
			j.align.note(outP.String(), it.Ts, trace)
		}
	case stream.KindEOS:
		if j.eos[port] {
			return fmt.Errorf("parallel: %s: duplicate EOS on port %d", j.Name(), port)
		}
		j.eos[port] = true
	default:
		return fmt.Errorf("parallel: %s: unknown item kind %v", j.Name(), it.Kind)
	}
	for s, pj := range j.shards {
		if err := pj.Process(port, it, it.Ts); err != nil {
			return j.shardErr(s, err)
		}
	}
	return nil
}

// OnIdle implements op.Operator: every shard gets the idle signal.
func (j *ShardedPJoin) OnIdle(now stream.Time) (bool, error) {
	if j.finished {
		return false, nil
	}
	worked := false
	for s, pj := range j.shards {
		w, err := pj.OnIdle(now)
		if err != nil {
			return worked, j.shardErr(s, err)
		}
		worked = worked || w
	}
	return worked, nil
}

// RequestPropagation implements the executor's pull-mode propagation:
// every shard releases what it can.
func (j *ShardedPJoin) RequestPropagation(now stream.Time) error {
	if j.finished {
		return fmt.Errorf("parallel: %s: RequestPropagation after Finish", j.Name())
	}
	for s, pj := range j.shards {
		if err := pj.RequestPropagation(now); err != nil {
			return j.shardErr(s, err)
		}
	}
	return nil
}

// Finish implements op.Operator: it finishes every shard (final disk
// passes and propagation), then align, which emits the one downstream
// EOS.
func (j *ShardedPJoin) Finish(now stream.Time) error {
	if j.finished {
		return fmt.Errorf("parallel: %s: double Finish", j.Name())
	}
	if !j.eos[0] || !j.eos[1] {
		return fmt.Errorf("parallel: %s: Finish before EOS on both ports", j.Name())
	}
	j.finished = true
	for s, pj := range j.shards {
		if err := pj.Finish(now); err != nil {
			return j.shardErr(s, err)
		}
	}
	return j.align.Finish(now)
}

// Metrics returns the work counters summed across shards, PunctsIn
// normalised back to stream level (every shard sees every punctuation)
// and PunctsOut counting the punctuations align forwarded.
func (j *ShardedPJoin) Metrics() joinbase.Metrics {
	var total joinbase.Metrics
	for _, pj := range j.shards {
		total.Add(pj.Metrics())
	}
	n := int64(len(j.shards))
	total.PunctsIn[0] /= n
	total.PunctsIn[1] /= n
	total.PunctsOut = j.align.punctsOut
	return total
}

// Latencies returns the join-wide view: the router's rows
// (obs.HistDef.Router; PunctDelay counts the forwarded punctuations) and
// every other row merged from the shards.
func (j *ShardedPJoin) Latencies() obs.LatSnapshot {
	out := j.lat.Snapshot()
	for _, pj := range j.shards {
		out.MergeShard(pj.Latencies())
	}
	return out
}

// StateTuples returns the total tuples held across all shard states.
func (j *ShardedPJoin) StateTuples() int {
	total := 0
	for _, pj := range j.shards {
		total += pj.StateTuples()
	}
	return total
}

// PunctSetSizes returns the punctuations held per side, summed across
// the shards (every shard holds its own copy of each).
func (j *ShardedPJoin) PunctSetSizes() (a, b int) {
	for _, pj := range j.shards {
		sa, sb := pj.PunctSetSizes()
		a, b = a+sa, b+sb
	}
	return a, b
}

// ShardStats is the per-shard monitoring view of a sharded join.
type ShardStats struct {
	Shard  int
	Routed int64            // data tuples routed to this shard
	Join   joinbase.Metrics // the shard's own work counters
}

// ShardStats snapshots every shard.
func (j *ShardedPJoin) ShardStats() []ShardStats {
	out := make([]ShardStats, len(j.shards))
	for i, pj := range j.shards {
		out[i] = ShardStats{Shard: i, Routed: j.routed[i], Join: pj.Metrics()}
	}
	return out
}

// Skew summarises routing balance: the ratio of the most-loaded shard's
// routed tuples to the mean (1.0 = perfectly balanced). Zero routed
// tuples yields 0.
func Skew(stats []ShardStats) float64 {
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
	return float64(max) / (float64(sum) / float64(len(stats)))
}

// PendingPunctuations returns how many punctuations align holds for
// stragglers (propagated by some but not all shards) — a liveness metric
// for the alignment invariant.
func (j *ShardedPJoin) PendingPunctuations() int { return len(j.align.pending) }
