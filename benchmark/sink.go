package main

import (
	"fmt"
	"time"

	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// sink is the benchmark's terminal operator: spawned on the last edge of
// every pipeline, it counts what arrives and keeps none of it.
// exec.Pipeline.Sink retains every result in an op.Collector, which on a
// fan-out input is half the run's time and nine tenths of its heap, so
// it is never used here.
//
// Two optional extras: checksum folds every data tuple into an
// order-independent sum (the warm-up round's correctness check), and lat
// times the rows that close a key against the open-loop schedule.
type sink struct {
	// out receives the sink's own EOS, the only item it ever emits.
	out op.Emitter

	tuples, puncts int64
	eos            int
	finished       bool

	checksum bool
	sum      uint64

	lat *latencyProbe
}

var (
	_ op.Operator       = (*sink)(nil)
	_ op.BatchProcessor = (*sink)(nil)
)

func (s *sink) Name() string              { return "count-sink" }
func (s *sink) NumPorts() int             { return 1 }
func (s *sink) OutSchema() *stream.Schema { return nil }

func (s *sink) Process(port int, it stream.Item, _ stream.Time) error {
	if err := s.ready(port); err != nil {
		return err
	}
	return s.take(&it, s.receipt())
}

func (s *sink) ProcessBatch(port int, items []stream.Item, _ stream.Time) error {
	if err := s.ready(port); err != nil {
		return err
	}
	// One clock reading per delivery: every item of a batch reached the
	// sink in the same channel operation.
	at := s.receipt()
	for i := range items {
		if err := s.take(&items[i], at); err != nil {
			return err
		}
	}
	return nil
}

func (s *sink) ready(port int) error {
	if s.finished {
		return fmt.Errorf("count-sink: Process after Finish")
	}
	return op.ValidatePort(s.Name(), port, 1)
}

// receipt is the delivery time on the paced schedule's clock; it is only
// read when latency is being taken.
func (s *sink) receipt() time.Duration {
	if s.lat == nil {
		return 0
	}
	return time.Since(s.lat.start)
}

func (s *sink) take(it *stream.Item, at time.Duration) error {
	if s.eos > 0 {
		return fmt.Errorf("count-sink: %v after EOS", it.Kind)
	}
	switch it.Kind {
	case stream.KindTuple:
		s.tuples++
		if s.checksum {
			s.sum += tupleHash(it.Tuple)
		}
	case stream.KindPunct:
		s.puncts++
	case stream.KindEOS:
		s.eos++
		return nil
	default:
		return fmt.Errorf("count-sink: unknown item kind %v", it.Kind)
	}
	if s.lat != nil {
		s.lat.observe(it, at)
	}
	return nil
}

func (s *sink) OnIdle(stream.Time) (bool, error) {
	if s.finished {
		return false, fmt.Errorf("count-sink: OnIdle after Finish")
	}
	return false, nil
}

// Finish ends the pipeline with the sink's own EOS, like any operator.
func (s *sink) Finish(now stream.Time) error {
	if s.finished {
		return fmt.Errorf("count-sink: double Finish")
	}
	if s.eos != 1 {
		return fmt.Errorf("count-sink: Finish before EOS")
	}
	s.finished = true
	return s.out.Emit(stream.EOSItem(now))
}

// discard is the emitter behind a pipeline's sink: nothing is downstream.
var discard = op.EmitterFunc(func(stream.Item) error { return nil })

// tupleHash hashes a tuple's values position by position. Summing it
// over a result multiset (wrapping) gives a checksum that does not depend
// on result order, which the live pipeline does not fix.
func tupleHash(t *stream.Tuple) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range t.Values {
		h = (h ^ v.Hash()) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	return h
}

// latencyProbe turns sink deliveries into latency samples on the auction
// plan: the receipt time of an item's aggregate row minus the due time of
// the Bid punctuation that closed the item. The due time comes from the
// generator's schedule, not from any timestamp the engine carries: exec
// restamps Ts at every operator, so an in-program latency starts at
// operator arrival and leaves out source lateness and edge wait.
type latencyProbe struct {
	// start is the wall-clock reading taken immediately before
	// Pipeline.Run, the origin of the paced schedule.
	start    time.Time
	closeDue []time.Duration
	samples  []time.Duration
}

func newLatencyProbe(in *input) *latencyProbe {
	return &latencyProbe{closeDue: in.closeDue, samples: make([]time.Duration, 0, len(in.closeDue))}
}

func (p *latencyProbe) observe(it *stream.Item, at time.Duration) {
	if it.Kind != stream.KindTuple {
		return
	}
	k := it.Tuple.Values[0].IntVal()
	if k < 0 || k >= int64(len(p.closeDue)) || p.closeDue[k] < 0 {
		return
	}
	p.samples = append(p.samples, at-p.closeDue[k])
}
