package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// span is one timed call into a layer, recorded by the benchmark around
// the engine's public entry points (the engine itself is not modified).
// Emit calls made during the span are aggregated into it as child time
// rather than recorded one span per result; self time is
// (End - Start) - ChildNs.
type span struct {
	Workload   string `json:"workload"`
	Round      int    `json:"round"`
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Layer      string `json:"layer"`
	Name       string `json:"name"`
	Start      int64  `json:"start"` // ns since Pipeline.Run
	End        int64  `json:"end"`
	Items      int    `json:"items"`
	ChildNs    int64  `json:"child_ns"`
	ChildCalls int64  `json:"child_calls"`
}

// maxSpans bounds the spans kept per traced run. A per-item pipeline
// makes one sink call per result, so an unbounded buffer would be larger
// than the run's own heap; calls past the bound are still timed and
// counted in the per-operator totals, only their span lines are dropped.
const maxSpans = 1 << 17

// emitStride is the systematic sampling stride for timing Emit calls. At
// 26 results per input two clock readings per Emit cost more than the
// 10% tracing budget, so every 17th Emit is timed and the total scaled
// by the count. The stride is prime so it cannot lock onto the batch
// size, where every 256th Emit is the one that flushes.
const emitStride = 17

// tracer collects one traced run's spans. Each tapped operator is driven
// by its own goroutine, so each opTap owns its buffer; the tracer only
// joins them after Pipeline.Run has returned.
type tracer struct {
	workload string
	round    int
	start    time.Time
	taps     []*opTap
}

// opTap is the per-operator recording state shared by a tapOp and the
// tapEmit in front of its emitter.
type opTap struct {
	tr    *tracer
	layer string
	name  string

	spans []span

	calls, items int64
	busyNs       int64 // Σ call durations
	emits        int64
	emitTimed    int64 // Emit calls actually timed
	emitTimedNs  int64
	// The same three counters for the call in progress, reset by begin
	// and folded into the totals by end.
	callEmits, callTimed int64
	callTimedNs          int64

	// sched, when set, is the paced schedule of this operator's input
	// ports; lag collects arrival time minus due time per input item.
	sched *[2][]stream.Item
	next  [2]int
	lag   []time.Duration
}

func (tr *tracer) tap(layer, name string) *opTap {
	t := &opTap{tr: tr, layer: layer, name: name, spans: make([]span, 0, maxSpans/4)}
	tr.taps = append(tr.taps, t)
	return t
}

// emitNs is the estimated total time spent inside Emit.
func (t *opTap) emitNs() int64 {
	if t.emitTimed == 0 {
		return 0
	}
	return int64(float64(t.emitTimedNs) * float64(t.emits) / float64(t.emitTimed))
}

func (t *opTap) begin() time.Duration {
	t.callEmits, t.callTimed, t.callTimedNs = 0, 0, 0
	return time.Since(t.tr.start)
}

func (t *opTap) end(name string, start time.Duration, items int) {
	end := time.Since(t.tr.start)
	t.calls++
	t.items += int64(items)
	t.busyNs += int64(end - start)
	t.emits += t.callEmits
	t.emitTimed += t.callTimed
	t.emitTimedNs += t.callTimedNs
	if len(t.spans) >= maxSpans {
		return
	}
	var child int64
	if t.callTimed > 0 {
		child = int64(float64(t.callTimedNs) * float64(t.callEmits) / float64(t.callTimed))
	}
	t.spans = append(t.spans, span{
		Layer: t.layer, Name: t.name + "." + name,
		Start: int64(start), End: int64(end), Items: items,
		ChildNs: child, ChildCalls: t.callEmits,
	})
}

// tapOp wraps a spawned operator and times every Process, ProcessBatch,
// OnIdle and Finish. It owns the operator's EOS: the inner operator's EOS
// is held back by the tapEmit and re-issued by tapOp.Finish, which is
// how the wrapper can vouch for "exactly one EOS, from Finish".
type tapOp struct {
	inner op.Operator
	tap   *opTap
	out   *tapEmit
	eos   int
}

var (
	_ op.Operator       = (*tapOp)(nil)
	_ op.BatchProcessor = (*tapOp)(nil)
)

func (o *tapOp) Name() string              { return o.inner.Name() }
func (o *tapOp) NumPorts() int             { return o.inner.NumPorts() }
func (o *tapOp) OutSchema() *stream.Schema { return o.inner.OutSchema() }

func (o *tapOp) arrived(port int, it *stream.Item, at time.Duration) {
	if it.Kind == stream.KindEOS {
		o.eos++
		return
	}
	t := o.tap
	if t.sched == nil || port > 1 || t.next[port] >= len(t.sched[port]) {
		return
	}
	t.lag = append(t.lag, at-time.Duration(t.sched[port][t.next[port]].Ts))
	t.next[port]++
}

func (o *tapOp) Process(port int, it stream.Item, now stream.Time) error {
	start := o.tap.begin()
	o.arrived(port, &it, start)
	err := o.inner.Process(port, it, now)
	o.tap.end("Process", start, 1)
	return err
}

func (o *tapOp) ProcessBatch(port int, items []stream.Item, _ stream.Time) error {
	start := o.tap.begin()
	for i := range items {
		o.arrived(port, &items[i], start)
	}
	err := op.ProcessAll(o.inner, port, items)
	o.tap.end("ProcessBatch", start, len(items))
	return err
}

func (o *tapOp) OnIdle(now stream.Time) (bool, error) {
	start := o.tap.begin()
	did, err := o.inner.OnIdle(now)
	o.tap.end("OnIdle", start, 0)
	return did, err
}

func (o *tapOp) Finish(now stream.Time) error {
	if o.eos != o.inner.NumPorts() {
		return fmt.Errorf("tap(%s): Finish after %d of %d EOS", o.inner.Name(), o.eos, o.inner.NumPorts())
	}
	start := o.tap.begin()
	err := o.inner.Finish(now)
	o.tap.end("Finish", start, 0)
	if err != nil {
		return err
	}
	if o.out.eos != 1 {
		return fmt.Errorf("tap(%s): operator emitted %d EOS from Finish, want 1", o.inner.Name(), o.out.eos)
	}
	return o.out.next.Emit(stream.EOSItem(o.out.eosTs))
}

// tapEmit stands in front of the emitter handed to a tapped operator. It
// counts every Emit and times a systematic sample of them.
type tapEmit struct {
	next  op.Emitter
	tap   *opTap
	eos   int
	eosTs stream.Time
}

func (e *tapEmit) Emit(it stream.Item) error {
	if it.Kind == stream.KindEOS {
		e.eos++
		e.eosTs = it.Ts
		return nil
	}
	t := e.tap
	t.callEmits++
	if (t.emits+t.callEmits)%emitStride != 0 {
		return e.next.Emit(it)
	}
	start := time.Now()
	err := e.next.Emit(it)
	t.callTimedNs += int64(time.Since(start))
	t.callTimed++
	return err
}

// emitter returns the emitter to build a tapped operator on: next behind
// a tapEmit, or next itself when there is no tracer.
func (tr *tracer) emitter(layer, name string, next op.Emitter) (op.Emitter, *tapEmit) {
	if tr == nil {
		return next, nil
	}
	te := &tapEmit{next: next, tap: tr.tap(layer, name)}
	return te, te
}

// wrap returns the operator to spawn: o inside a tapOp sharing te's tap,
// or o itself when there is no tracer.
func (tr *tracer) wrap(o op.Operator, te *tapEmit) op.Operator {
	if tr == nil {
		return o
	}
	return &tapOp{inner: o, tap: te.tap, out: te}
}

// find returns the tap of the named layer (nil if the pipeline has none).
func (tr *tracer) find(layer string) *opTap {
	for _, t := range tr.taps {
		if t.layer == layer {
			return t
		}
	}
	return nil
}

// write stores the run's spans as JSON lines, a root span for the run
// first and every operator call as its child.
func (tr *tracer) write(dir string, wall time.Duration) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tr.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	root := span{Workload: tr.workload, Round: tr.round, ID: 1, Layer: "benchmark", Name: "Pipeline.Run", End: int64(wall)}
	for _, t := range tr.taps {
		root.ChildCalls += t.calls
	}
	err = enc.Encode(root)
	id := 1
	for _, t := range tr.taps {
		for i := range t.spans {
			if err != nil {
				break
			}
			id++
			s := &t.spans[i]
			s.Workload, s.Round, s.ID, s.Parent = tr.workload, tr.round, id, 1
			err = enc.Encode(s)
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
