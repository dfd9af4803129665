// Package sim drives a join operator through a generated arrival
// schedule on a virtual clock, charging the operator's measured work
// (probes, purge scans, index scans, disk pairs, spill I/O) against a
// calibrated cost model. This reproduces the paper's experimental method
// — Poisson arrivals at a fixed mean with the join racing the streams —
// deterministically and independently of the host machine: when the
// operator's per-item work exceeds the inter-arrival gap it falls
// behind, its completion times lag the arrivals, and its output rate
// drops, exactly the effect the paper's Fig. 7/9/11/12 charts show.
package sim

import (
	"fmt"

	"pjoin/internal/gen"
	"pjoin/internal/joinbase"
	"pjoin/internal/op"
	"pjoin/internal/store"
	"pjoin/internal/stream"
)

// CostModel prices each unit of operator work in virtual nanoseconds.
// The defaults are calibrated so that, at the paper's 2 ms mean tuple
// inter-arrival, a small-state join keeps up comfortably while an
// XJoin-like growing state pushes per-tuple cost past the arrival gap
// within about half a minute of virtual time.
type CostModel struct {
	PerTuple      stream.Time // fixed cost per data tuple (hash, insert, dispatch)
	PerPunct      stream.Time // fixed cost per punctuation (set insert, monitor)
	PerProbe      stream.Time // per stored tuple examined by a memory probe
	PerResult     stream.Time // per result tuple constructed and emitted
	PerPurgeScan  stream.Time // per tuple examined by a purge scan
	PerPurgeRun   stream.Time // fixed cost per purge invocation (full table walk)
	PerIndexScan  stream.Time // per tuple examined by index building
	PerDiskPair   stream.Time // per same-key candidate pair a disk pass visits (Metrics.DiskExamined): its residence-interval checks; a pass visits only pairs with a fresh member, so re-reading old records is charged as I/O and steps, not pairs
	PerDiskChunk  stream.Time // fixed cost per incremental disk-pass step (scheduling, cursor bookkeeping)
	PerSpillTuple stream.Time // per tuple serialised during relocation
	PerIOOp       stream.Time // per spill-store read/write operation (seek)
	PerIOByte     stream.Time // per byte moved to/from the spill store
	PerBatch      stream.Time // fixed cost per delivered batch (wakeup, dispatch); 0 by default — the simulator drives per item, so committed figures are unaffected
}

// DefaultCosts returns the calibrated cost model used by the paper
// reproduction experiments. Calibration notes:
//
//   - The paper's testbed (Java 1.4 on a 2.4 GHz Pentium-IV, inside the
//     Raindrop XQuery engine) was borderline CPU-bound at the 2 ms mean
//     inter-arrival — its output-rate charts differ across strategies,
//     which is only possible when processing cost is comparable to the
//     arrival gap. PerTuple reflects that per-element engine overhead.
//   - Purge scans evaluate punctuation predicates per stored tuple
//     (pattern interpretation), which is substantially dearer than a
//     hash-bucket equality probe; hence PerPurgeScan >> PerProbe. This
//     ratio is what makes eager purge visibly expensive (Fig. 9/12).
func DefaultCosts() CostModel {
	const us = stream.Time(1_000) // one microsecond
	return CostModel{
		PerTuple:      800 * us,
		PerPunct:      100 * us,
		PerProbe:      10 * us,
		PerResult:     5 * us,
		PerPurgeScan:  40 * us,
		PerPurgeRun:   4_000 * us, // a purge walks the whole hash table
		PerIndexScan:  10 * us,
		PerDiskPair:   2 * us,
		PerDiskChunk:  100 * us, // task switch + cursor resume per bounded step
		PerSpillTuple: 10 * us,
		PerIOOp:       5_000 * us, // 5 ms seek
		PerIOByte:     us / 100,   // 10 ns/byte ≈ 100 MB/s
	}
}

// Charge prices the cumulative work recorded in m from a zero baseline
// (spill-store I/O is charged separately, from store.IOStats). Because
// the model is linear, the cost of a work delta is the difference of
// two Charge values.
func (d CostModel) Charge(m joinbase.Metrics) stream.Time {
	var cost stream.Time
	cost += d.PerTuple * stream.Time(m.TuplesIn[0]+m.TuplesIn[1])
	cost += d.PerPunct * stream.Time(m.PunctsIn[0]+m.PunctsIn[1])
	cost += d.PerProbe * stream.Time(m.Examined)
	cost += d.PerResult * stream.Time(m.TuplesOut)
	cost += d.PerPurgeScan * stream.Time(m.PurgeScanned)
	cost += d.PerPurgeRun * stream.Time(m.PurgeRuns)
	cost += d.PerIndexScan * stream.Time(m.IndexScanned)
	cost += d.PerDiskPair * stream.Time(m.DiskExamined)
	cost += d.PerDiskChunk * stream.Time(m.DiskChunks)
	cost += d.PerSpillTuple * stream.Time(m.SpilledTuples)
	cost += d.PerBatch * stream.Time(m.Batches)
	return cost
}

// MeteredJoin is the operator contract the simulator drives: a two-port
// operator exposing its work counters and state size. core.PJoin, built
// by core.New or core.NewXJoin, satisfies it.
type MeteredJoin interface {
	op.Operator
	Metrics() joinbase.Metrics
	StateTuples() int
}

// Config configures a simulation run.
type Config struct {
	// Costs is the cost model (DefaultCosts() if zero).
	Costs CostModel
	// SampleEvery is the sampling period for the time series (default
	// one virtual second).
	SampleEvery stream.Time
	// Spills are the operator's spill stores; their I/O counters are
	// charged through the cost model. Optional.
	Spills []store.SpillStore
}

// Sample is one point of the recorded time series.
type Sample struct {
	T           stream.Time // virtual time of the sample
	StateTuples int         // total tuples in the join state
	TuplesOut   int64       // cumulative result tuples emitted
	PunctsOut   int64       // cumulative punctuations propagated
	Lag         stream.Time // how far the operator trails the arrivals
}

// Result is the outcome of a simulation run.
type Result struct {
	Samples []Sample
	Final   joinbase.Metrics
	// Done is the virtual time at which the operator finished all work
	// including the end-of-stream flush.
	Done stream.Time
	// WorkTime is the total busy time charged to the operator.
	WorkTime stream.Time
	// IO is the cumulative spill-store traffic.
	IO store.IOStats
}

type costTracker struct {
	costs  CostModel
	spills []store.SpillStore
	prev   joinbase.Metrics
	prevIO store.IOStats
}

func (c *costTracker) ioNow() store.IOStats {
	var total store.IOStats
	for _, s := range c.spills {
		st, err := s.Stats()
		if err != nil {
			// A closed store's traffic was already charged while it was
			// open; it contributes nothing further.
			continue
		}
		total.ReadOps += st.ReadOps
		total.WriteOps += st.WriteOps
		// Chunk continuations are reporting-only: their bytes are charged
		// through BytesRead and their scheduling through PerDiskChunk, so
		// charging them as ops too would double-count the same work.
		total.ChunkReads += st.ChunkReads
		total.BytesRead += st.BytesRead
		total.BytesWritten += st.BytesWritten
	}
	return total
}

// charge computes the virtual cost of the work done since the last call.
func (c *costTracker) charge(m joinbase.Metrics) stream.Time {
	d := c.costs
	cost := d.Charge(m) - d.Charge(c.prev)
	c.prev = m

	io := c.ioNow()
	cost += d.PerIOOp * stream.Time(io.ReadOps+io.WriteOps-c.prevIO.ReadOps-c.prevIO.WriteOps)
	cost += d.PerIOByte * stream.Time(io.BytesRead+io.BytesWritten-c.prevIO.BytesRead-c.prevIO.BytesWritten)
	c.prevIO = io
	return cost
}

// Run simulates the operator against the schedule and returns the
// recorded series. The schedule must be time-ordered with strictly
// increasing timestamps (gen.Validate checks this).
func Run(j MeteredJoin, arrivals []gen.Arrival, cfg Config) (*Result, error) {
	if j == nil {
		return nil, fmt.Errorf("sim: nil operator")
	}
	if j.NumPorts() != 2 {
		return nil, fmt.Errorf("sim: operator must have 2 ports, has %d", j.NumPorts())
	}
	if cfg.Costs == (CostModel{}) {
		cfg.Costs = DefaultCosts()
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1000 * stream.Millisecond
	}

	tracker := &costTracker{costs: cfg.Costs, spills: cfg.Spills}
	res := &Result{}
	var (
		busy       stream.Time // operator is busy until this instant
		nextSample = cfg.SampleEvery
		lastTs     stream.Time
	)

	record := func(now stream.Time, arrivalTs stream.Time) {
		for nextSample <= now {
			lag := now - arrivalTs
			if lag < 0 {
				lag = 0
			}
			m := j.Metrics()
			res.Samples = append(res.Samples, Sample{
				T:           nextSample,
				StateTuples: j.StateTuples(),
				TuplesOut:   m.TuplesOut,
				PunctsOut:   m.PunctsOut,
				Lag:         lag,
			})
			nextSample += cfg.SampleEvery
		}
	}

	for i, a := range arrivals {
		if a.Item.Ts <= lastTs {
			return nil, fmt.Errorf("sim: arrival %d: timestamps must strictly increase", i)
		}
		lastTs = a.Item.Ts

		// Idle gap before this arrival: give the operator a chance to do
		// reactive background work (disk join). The work is stamped just
		// before the arrival so residence-interval bookkeeping stays
		// consistent.
		if a.Item.Ts > busy+1 {
			if _, err := j.OnIdle(a.Item.Ts - 1); err != nil {
				return nil, fmt.Errorf("sim: OnIdle: %w", err)
			}
			if c := tracker.charge(j.Metrics()); c > 0 {
				busy += c
			}
		}

		start := busy
		if a.Item.Ts > start {
			start = a.Item.Ts
		}
		if err := j.Process(a.Port, a.Item, a.Item.Ts); err != nil {
			return nil, fmt.Errorf("sim: arrival %d: %w", i, err)
		}
		cost := tracker.charge(j.Metrics())
		busy = start + cost
		res.WorkTime += cost
		record(busy, a.Item.Ts)
	}

	// End of stream: deliver EOS on both ports and flush.
	for port := 0; port < 2; port++ {
		lastTs++
		if err := j.Process(port, stream.EOSItem(lastTs), lastTs); err != nil {
			return nil, fmt.Errorf("sim: EOS port %d: %w", port, err)
		}
	}
	lastTs++
	if err := j.Finish(lastTs); err != nil {
		return nil, fmt.Errorf("sim: Finish: %w", err)
	}
	cost := tracker.charge(j.Metrics())
	if busy < lastTs {
		busy = lastTs
	}
	busy += cost
	res.WorkTime += cost
	record(busy, lastTs)

	res.Final = j.Metrics()
	res.Done = busy
	res.IO = tracker.ioNow()
	return res, nil
}
