// Package parallel implements ShardedPJoin: a hash-partitioned
// composition of N independent core.PJoin instances, built from three
// parts, none with a goroutine, a channel or a batch pool of its own:
//
//   - The router (ShardedPJoin) hashes each tuple's join attribute once
//     and hands the tuple to the shard owning the hash, so every matching
//     pair meets in exactly one shard; it broadcasts punctuations and EOS.
//   - The shards: N unmodified core.PJoin instances.
//   - Align, fed by the shards, passes results through, forwards a
//     propagated punctuation once the last shard has propagated it (only
//     then is "no more results matching p" true join-wide) and ends the
//     output with one EOS.
//
// The parts call each other directly, on the caller's goroutine: one
// ProcessBatch per routed run (a shard's tuples between two punctuations
// of one ProcessBatch call, in order, now = the run's last timestamp), one
// Process per broadcast item. It is a direct-drive wiring only, and what it
// does is strictly more work than one PJoin: the benchmark's sharded
// direct drive (benchmark/direct.go) is its one caller, and DESIGN.md §5
// says why the sharded join was otherwise retired.
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
	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// Config configures a ShardedPJoin: how many shards and what each
// shard's join is.
type Config struct {
	// Shards is the number of key-space partitions (>= 1). Shards == 1
	// is a single PJoin behind the router and align.
	Shards int
	// Join is the per-shard PJoin configuration; NumBuckets and
	// Thresholds apply per shard. SpillA, SpillB and Instr must be nil:
	// every shard gets core.New's fresh spill stores and no tracing.
	Join core.Config
}

// ShardedPJoin is the router of a sharded join and owns its shards and
// align. Like a two-port operator it takes Process/ProcessBatch per port
// and one Finish after EOS on both.
type ShardedPJoin struct {
	shards []*core.PJoin
	align  *align
	attrs  [2]int

	// Routing scratch: each tuple's shard, and one shard's run. run is
	// cleared before the call that filled it returns.
	shardOf []int
	run     []stream.Item

	eos      [2]bool
	finished bool
}

// New builds a sharded join whose router, shards and align call each
// other directly, on the caller's goroutine.
func New(cfg Config, out op.Emitter) (*ShardedPJoin, error) {
	if out == nil {
		return nil, fmt.Errorf("parallel: ShardedPJoin needs an output emitter")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("parallel: need at least one shard, got %d", cfg.Shards)
	}
	if cfg.Join.SpillA != nil || cfg.Join.SpillB != nil || cfg.Join.Instr != nil {
		return nil, fmt.Errorf("parallel: every shard builds its own spill stores and runs untraced; leave SpillA, SpillB and Instr nil")
	}
	j := &ShardedPJoin{attrs: [2]int{cfg.Join.AttrA, cfg.Join.AttrB}}
	j.align = &align{out: out, n: cfg.Shards, pending: make(map[string]*pendingPunct)}
	for i := 0; i < cfg.Shards; i++ {
		pj, err := core.New(cfg.Join, alignPort{j.align, i})
		if err != nil {
			return nil, fmt.Errorf("parallel: shard %d: %w", i, err)
		}
		j.shards = append(j.shards, pj)
	}
	return j, nil
}

// shardErr names the shard an error came from.
func (j *ShardedPJoin) shardErr(s int, err error) error {
	return fmt.Errorf("parallel: shard %d of %d: %w", s, len(j.shards), err)
}

// Process routes the item as a batch of one.
func (j *ShardedPJoin) Process(port int, it stream.Item, now stream.Time) error {
	one := [1]stream.Item{it}
	return j.ProcessBatch(port, one[:], now)
}

// ProcessBatch routes a batch. Punctuations and EOS split the batch into
// runs of tuples; each run is routed before the item that ends it is
// broadcast, so every shard sees its tuples and the punctuations in input
// order.
func (j *ShardedPJoin) ProcessBatch(port int, items []stream.Item, now stream.Time) error {
	if err := op.ValidatePort("parallel", port, 2); err != nil {
		return err
	}
	if j.finished {
		return fmt.Errorf("parallel: Process after Finish")
	}
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
			return fmt.Errorf("parallel: tuple width %d lacks join attribute %d", len(it.Tuple.Values), attr)
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
		shardOf[i] = int(it.Tuple.Values[j.attrs[port]].Hash() % uint64(len(j.shards)))
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
	case stream.KindEOS:
		if j.eos[port] {
			return fmt.Errorf("parallel: duplicate EOS on port %d", port)
		}
		j.eos[port] = true
	default:
		return fmt.Errorf("parallel: unknown item kind %v", it.Kind)
	}
	for s, pj := range j.shards {
		if err := pj.Process(port, it, it.Ts); err != nil {
			return j.shardErr(s, err)
		}
	}
	return nil
}

// Finish finishes every shard (final disk passes and propagation), then
// align, which emits the one downstream EOS.
func (j *ShardedPJoin) Finish(now stream.Time) error {
	if j.finished {
		return fmt.Errorf("parallel: double Finish")
	}
	if !j.eos[0] || !j.eos[1] {
		return fmt.Errorf("parallel: Finish before EOS on both ports")
	}
	j.finished = true
	for s, pj := range j.shards {
		if err := pj.Finish(now); err != nil {
			return j.shardErr(s, err)
		}
	}
	return j.align.Finish(now)
}
