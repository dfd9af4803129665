package bench

// This file implements the flight-recorder acceptance scenario behind
// `pjoinbench -flight-sample` and the fault-injection regression test:
// a PJoin whose spill device fails on read wedges mid-run; input keeps
// arriving while propagation is stuck, punctuation lag grows past the
// SLO, the stall detector fires, and the last spans + histogram
// snapshots are dumped as a JSONL flight record.

import (
	"errors"
	"fmt"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/obs"
	"pjoin/internal/obs/health"
	"pjoin/internal/op"
	"pjoin/internal/store"
	"pjoin/internal/stream"
)

// FlightOutcome is what the fault-injection run produced.
type FlightOutcome struct {
	// Report is the detector's firing report (Reason "lag_slo").
	Report health.Report
	// WedgedAt is the arrival timestamp at which the injected fault
	// surfaced from the operator.
	WedgedAt stream.Time
	// PunctsOut is how many punctuations had propagated before the
	// wedge (nonzero: the run was healthy first).
	PunctsOut int64
	// RingEvents is how many spans the flight ring held at dump time.
	RingEvents int64
}

// RunFlight drives the scenario and, if path is non-empty, writes the
// flight dump there (gzip-compressed for a .gz suffix). The returned
// outcome lets callers assert the shape: healthy propagation first,
// then a read fault, then a lag-SLO violation.
func RunFlight(path string) (*FlightOutcome, error) {
	const (
		lagSLO  = 200 * stream.Millisecond
		horizon = 4_000 * stream.Millisecond
	)
	ring := obs.NewRing(128)
	boom := errors.New("injected: unreadable spill sector")

	cfg := core.Config{
		SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
		AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
		Instr: obs.NewInstr(ring, nil, "pjoin"),
	}
	cfg.Thresholds.Purge = 1
	cfg.Thresholds.PropagateCount = 1
	cfg.Thresholds.MemoryBytes = 2 << 10 // relocate early so purges need the disk
	cfg.SpillA = store.NewFaultSpill(store.NewMemSpill(), store.FaultRead, 1, boom)
	cfg.SpillB = store.NewFaultSpill(store.NewMemSpill(), store.FaultRead, 1, boom)

	// The supervisor's view of propagation progress: the timestamp of
	// the newest punctuation seen downstream. Its staleness against the
	// arrival clock is the punctuation lag a downstream SLO monitor
	// would measure.
	var lastPunctOut stream.Time
	j, err := core.New(cfg, op.EmitterFunc(func(it stream.Item) error {
		if it.Kind == stream.KindPunct && it.Ts > lastPunctOut {
			lastPunctOut = it.Ts
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}

	arrs, err := gen.Synthetic(gen.Config{
		Seed: 1, Duration: horizon,
		A:                  gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 10},
		B:                  gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 10},
		AlignedPunctuation: true,
	})
	if err != nil {
		return nil, err
	}

	d := health.NewDetector(health.Config{LagSLO: lagSLO})
	out := &FlightOutcome{}
	var wedged bool
	var fired bool
	for _, a := range arrs {
		if !wedged {
			if err := j.Process(a.Port, a.Item, a.Item.Ts); err != nil {
				if !errors.Is(err, boom) {
					return nil, fmt.Errorf("flight: unexpected operator error: %w", err)
				}
				wedged = true
				out.WedgedAt = a.Item.Ts
				out.PunctsOut = j.Metrics().PunctsOut
			}
		}
		// Input keeps arriving whether or not the operator can keep up;
		// the probe samples its counters from outside.
		m := j.Metrics()
		r, f := d.Observe(health.Progress{
			Now:       a.Item.Ts,
			TuplesIn:  m.TuplesIn[0] + m.TuplesIn[1],
			TuplesOut: m.TuplesOut,
			PunctsOut: m.PunctsOut,
			PunctLag:  a.Item.Ts - lastPunctOut,
		})
		if f {
			out.Report = r
			fired = true
			break
		}
	}
	if !wedged {
		return nil, fmt.Errorf("flight: injected fault never surfaced (workload too small?)")
	}
	if !fired {
		return nil, fmt.Errorf("flight: detector never fired (lag stayed under %v after the wedge)", lagSLO)
	}
	out.RingEvents = ring.Total()
	if out.RingEvents > 128 {
		out.RingEvents = 128
	}
	if path != "" {
		if err := health.DumpToFile(path, out.Report, ring, j.Latencies()); err != nil {
			return nil, err
		}
	}
	return out, nil
}
