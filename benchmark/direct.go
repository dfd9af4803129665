package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"pjoin/internal/core"
	"pjoin/internal/joinbase"
	"pjoin/internal/op"
	"pjoin/internal/parallel"
	"pjoin/internal/store"
	"pjoin/internal/stream"
)

// direct is the outcome of a direct drive: one goroutine feeding the
// workload's arrivals, in timestamp order, straight into the join's
// Process with a counting emitter. No exec, no edges, no second
// goroutine, so its counters repeat exactly for a seed and its cost is
// the single-threaded baseline the live pipeline's cost is compared with.
type direct struct {
	cpu    time.Duration
	allocs uint64
	// tupleNs and punctNs split the drive's wall time by input item kind
	// (one clock reading per item, each item charged the time since the
	// previous reading), so they add up to the loop's total.
	tupleNs, punctNs int64
	peakState        int
	peakPuncts       int // larger of the two punctuation sets, at its peak
	outPuncts        int64
	m                joinbase.Metrics
	io               store.IOStats
	// results holds the join's output when keepResults was asked for (the
	// group-by drive's input).
	results []stream.Item
}

// countEmitter counts what an operator emits and keeps nothing, unless
// keep is set.
type countEmitter struct {
	tuples, puncts, eos int64
	keep                bool
	items               []stream.Item
}

func (c *countEmitter) Emit(it stream.Item) error {
	switch it.Kind {
	case stream.KindTuple:
		c.tuples++
	case stream.KindPunct:
		c.puncts++
	case stream.KindEOS:
		c.eos++
	}
	if c.keep {
		c.items = append(c.items, it)
	}
	return nil
}

// stateSampleEvery is how often the direct drive reads the join's state
// size; a power of two so the check is a mask.
const stateSampleEvery = 1024

func driveDirect(in *input, keepResults bool) (*direct, error) {
	cfg, disk := withSpill(in.spec.joinConfig())
	out := &countEmitter{keep: keepResults}
	j, err := core.New(cfg, out)
	if err != nil {
		return nil, err
	}
	d := &direct{}
	runtime.GC()
	before := readUsage()
	prev := before.wall
	var last stream.Time
	for i, a := range in.arrivals {
		if err := j.Process(a.Port, a.Item, a.Item.Ts); err != nil {
			return nil, fmt.Errorf("direct drive: item %d: %w", i, err)
		}
		now := time.Now()
		if a.Item.Kind == stream.KindTuple {
			d.tupleNs += int64(now.Sub(prev))
		} else {
			d.punctNs += int64(now.Sub(prev))
		}
		prev = now
		last = a.Item.Ts
		if i&(stateSampleEvery-1) == 0 {
			if n := j.StateTuples(); n > d.peakState {
				d.peakState = n
			}
			pa, pb := j.PunctSetSizes()
			if pb > pa {
				pa = pb
			}
			if pa > d.peakPuncts {
				d.peakPuncts = pa
			}
		}
	}
	for port := 0; port < 2; port++ {
		last++
		if err := j.Process(port, stream.EOSItem(last), last); err != nil {
			return nil, err
		}
	}
	if err := j.Finish(last + 1); err != nil {
		return nil, err
	}
	after := readUsage()
	d.cpu = after.cpu - before.cpu
	d.allocs = after.allocs - before.allocs
	d.m = j.Metrics()
	d.outPuncts = out.puncts
	d.results = out.items
	if d.io, err = diskStats(disk); err != nil {
		return nil, err
	}
	if out.eos != 1 {
		return nil, fmt.Errorf("direct drive: %d EOS emitted, want 1", out.eos)
	}
	if d.m.TuplesOut != in.ref.joinResults {
		return nil, fmt.Errorf("direct drive: %d results, reference has %d", d.m.TuplesOut, in.ref.joinResults)
	}
	return d, nil
}

// atomicCounter is the emitter behind the sharded drive: shard workers
// emit through the merger from their own goroutines.
type atomicCounter struct{ tuples, eos atomic.Int64 }

func (c *atomicCounter) Emit(it stream.Item) error {
	switch it.Kind {
	case stream.KindTuple:
		c.tuples.Add(1)
	case stream.KindEOS:
		c.eos.Add(1)
	}
	return nil
}

// driveSharded feeds the same arrivals to parallel.ShardedPJoin. On two
// cores its wall clock says nothing about scaling, so only its CPU per
// tuple and its result count are reported.
func driveSharded(in *input, shards int) (cpuPerTuple float64, err error) {
	out := &atomicCounter{}
	j, err := parallel.New(parallel.Config{Shards: shards, Join: in.spec.joinConfig()}, out)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	before := cpuTime()
	var last stream.Time
	for i, a := range in.arrivals {
		if err := j.Process(a.Port, a.Item, a.Item.Ts); err != nil {
			return 0, fmt.Errorf("sharded drive: item %d: %w", i, err)
		}
		last = a.Item.Ts
	}
	for port := 0; port < 2; port++ {
		last++
		if err := j.Process(port, stream.EOSItem(last), last); err != nil {
			return 0, err
		}
	}
	if err := j.Finish(last + 1); err != nil {
		return 0, err
	}
	cpu := cpuTime() - before
	if got := out.tuples.Load(); got != in.ref.joinResults || out.eos.Load() != 1 {
		return 0, fmt.Errorf("sharded drive: %d results and %d EOS, reference has %d and 1", got, out.eos.Load(), in.ref.joinResults)
	}
	return float64(cpu.Microseconds()) / float64(in.tuples), nil
}

// driveGroupBy feeds the join's direct-drive output to the auction
// plan's group-by and returns its cost per join input tuple and the share
// of groups it emitted early (on a punctuation, before EOS).
func driveGroupBy(in *input, joined []stream.Item, schema *stream.Schema) (usPerTuple, earlyShare float64, err error) {
	out := &countEmitter{}
	gb, err := op.NewGroupBy(schema, 0, schema.MustIndexOf("bid_increase"), op.AggSum, out)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	var last stream.Time
	for _, it := range joined {
		if it.Kind == stream.KindEOS {
			continue
		}
		if err := gb.Process(0, it, it.Ts); err != nil {
			return 0, 0, err
		}
		last = it.Ts
	}
	if err := gb.Process(0, stream.EOSItem(last+1), last+1); err != nil {
		return 0, 0, err
	}
	if err := gb.Finish(last + 2); err != nil {
		return 0, 0, err
	}
	wall := time.Since(start)
	if out.tuples != in.ref.sinkTuples {
		return 0, 0, fmt.Errorf("group-by drive: %d rows, reference has %d", out.tuples, in.ref.sinkTuples)
	}
	if out.tuples > 0 {
		earlyShare = float64(gb.EarlyEmitted()) / float64(out.tuples)
	}
	return float64(wall.Nanoseconds()) / 1e3 / float64(in.tuples), earlyShare, nil
}
