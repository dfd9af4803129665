// Package op defines the query-operator abstraction the mini engine runs
// (the paper hosts PJoin inside the Raindrop system; this package plus
// internal/exec is our minimal equivalent), together with the
// punctuation-aware relational operators used downstream of the join:
// select, project and group-by (with early emission on punctuations).
//
// Operators are single-threaded state machines driven by Process calls;
// concurrency is the executor's business. This makes the same operator
// code runnable under the live channel executor and under the
// deterministic cost-model simulator.
package op

import (
	"fmt"

	"pjoin/internal/stream"
)

// Emitter receives an operator's output items.
type Emitter interface {
	Emit(stream.Item) error
}

// JoinEmitter is optionally implemented by emitters that can build a
// join result where it is going: EmitJoin(a, c, ts) is observably
// Emit(stream.TupleItem(r)) with r the result stream.Tuple.FillJoin makes
// of a (the join's side 0) and c at time ts (the later partner's
// arrival), except that the emitter owns r's storage and may deliver it
// borrowed (stream.Item.Borrowed). exec.Edge builds it in the batch it is
// filling, so a result its consumer drops is never a heap object. The
// binary joins probe for the interface once, at construction; every other
// emitter gets heap-built results through Emit.
type JoinEmitter interface {
	EmitJoin(a, c *stream.Tuple, ts stream.Time) error
}

// EmitterFunc adapts a function to Emitter.
type EmitterFunc func(stream.Item) error

// Emit implements Emitter.
func (f EmitterFunc) Emit(it stream.Item) error { return f(it) }

// Collector is an Emitter that stores everything it receives; the test
// suites and examples use it as a sink. A borrowed tuple is stored as a
// copy of its own (stream.ResultSlab.Keep).
type Collector struct {
	Items []stream.Item
	kept  stream.ResultSlab
}

// Emit implements Emitter.
func (c *Collector) Emit(it stream.Item) error {
	c.Items = append(c.Items, c.kept.Keep(it))
	return nil
}

// Grow pre-extends the collector's capacity for n more items, so a
// batched producer pays one growth instead of per-append doublings.
// Growth is geometric (at least double), never exact-fit: an exact-fit
// grow would leave zero spare after the batch lands and re-copy the
// whole collector on every subsequent batch — quadratic in total items.
// The capacities are powers of two from 256, so what the collector
// allocates does not depend on where its producer cut the first batch.
func (c *Collector) Grow(n int) {
	if n <= 0 || cap(c.Items)-len(c.Items) >= n {
		return
	}
	newCap := 256
	for newCap < len(c.Items)+n || newCap < 2*cap(c.Items) {
		newCap <<= 1
	}
	grown := make([]stream.Item, len(c.Items), newCap)
	copy(grown, c.Items)
	c.Items = grown
}

// EmitBatch stores a whole batch with a single append.
func (c *Collector) EmitBatch(items []stream.Item) error {
	n := len(c.Items)
	c.Items = append(c.Items, items...)
	for i, it := range c.Items[n:] {
		if it.Borrowed {
			c.Items[n+i] = c.kept.Keep(it)
		}
	}
	return nil
}

// Tuples returns only the data tuples received.
func (c *Collector) Tuples() []*stream.Tuple {
	var out []*stream.Tuple
	for _, it := range c.Items {
		if it.Kind == stream.KindTuple {
			out = append(out, it.Tuple)
		}
	}
	return out
}

// Puncts returns only the punctuation items received.
func (c *Collector) Puncts() []stream.Item {
	var out []stream.Item
	for _, it := range c.Items {
		if it.Kind == stream.KindPunct {
			out = append(out, it)
		}
	}
	return out
}

// Reset discards collected items.
func (c *Collector) Reset() { c.Items = nil }

// Operator is a stream query operator with one or more input ports.
// Implementations must be safe for single-goroutine use; the executor
// serialises calls.
//
// # Driver contract
//
// Every driver (the live executor, the simulator, the differential
// oracle's replay driver) holds every operator to the same lifecycle,
// and every operator — stateless relational ops and every join (shj,
// core.PJoin with XJoin) — enforces it with errors rather than
// undefined behaviour:
//
//  1. Process delivers items with non-decreasing now across ALL ports;
//     an operator may clamp its internal clock to max(now seen). Two
//     ports may deliver at one now (a cascade hands a join's result to
//     the next join at its arrival's Ts); an operator that must order
//     arrivals strictly stamps a tie past the previous arrival
//     (core.PJoin does).
//  2. EOS arrives exactly once per port (duplicate EOS is an error) and
//     is the last item on its port.
//  3. Finish is called exactly once, only after every port saw EOS
//     (early or double Finish is an error), with now at least the last
//     Process time. Finish flushes remaining state and emits exactly
//     one downstream EOS — operators never emit EOS from Process.
//  4. Process and OnIdle after Finish are errors.
//  5. OnIdle may be called at any point before Finish with the same
//     non-decreasing now domain as Process (the executor clamps idle
//     pulses so an operator's clock never runs backwards).
//  6. Tuples are immutable and shared (borrowed ones, like shj's
//     results, only until their call returns: rule 7); an item's arrival
//     time is it.Ts (every driver passes it as now), never it.Tuple.Ts
//     (whatever the tuple's creator set) — the live executor restamps
//     items, not tuples. An operator may keep the *stream.Tuple it is
//     handed but must not write it, and one that needs the arrival time
//     of a tuple it retains keeps it.Ts beside the pointer: core.PJoin
//     stores it as store.StoredTuple.ATS, so a join result's Ts is the
//     later partner's arrival at the join (shj uses the tuples' own Ts,
//     which direct drives, the simulator and the oracle set to the item's).
//  7. An item marked Borrowed carries a tuple that lives in the batch
//     that delivered it, or in the slab of the shj or GroupBy that
//     emitted it (the lenders): the tuple and its Values may be read,
//     and the item forwarded to the operator's Emitter, until the
//     Process / ProcessBatch call returns — the lifetime the items slice
//     of a batch already has; for a lender's own emitter, until the
//     lender's Process or Finish returns — and are zeroed afterwards.
//     An operator that stores the item, its Tuple or its Values anywhere
//     that outlives the call first passes the item through
//     stream.ResultSlab.Keep (a copy when borrowed, the item itself
//     otherwise); pjoinlint's opcontract flags the stores that do not.
//     Single attribute values copied out of Values are plain values and
//     stay valid.
//
// Operators differ in what Finish means — shj ignores punctuations and
// just emits EOS; PJoin runs a final purge/disk pass and propagates
// what became propagable; XJoin only finishes its left-over disk joins
// — but the observable lifecycle above is identical, which is what lets the
// differential oracle drive every configuration through one driver and
// compare outcomes. internal/oracle's contract test pins this.
type Operator interface {
	// Name identifies the operator instance in plans and errors.
	Name() string
	// NumPorts returns how many input ports the operator has.
	NumPorts() int
	// OutSchema describes the output tuples.
	OutSchema() *stream.Schema
	// Process consumes one input item on the given port at time now.
	// EOS items must be delivered exactly once per port; after every
	// port saw EOS the driver calls Finish.
	Process(port int, it stream.Item, now stream.Time) error
	// OnIdle is called when inputs are stalled, letting the operator do
	// background work (e.g. a reactive disk join). It reports whether it
	// did anything.
	OnIdle(now stream.Time) (bool, error)
	// Finish flushes remaining state after all ports reached EOS. The
	// operator must emit its own EOS downstream exactly once.
	Finish(now stream.Time) error
}

// BatchProcessor is optionally implemented by operators that can
// consume a whole batch of items per driver wakeup. ProcessBatch(port,
// items, now) must be observably identical to calling Process(port, it,
// it.Ts) for each item in order: same outputs, same errors, same
// metrics. Batches may mix kinds (a flush triggered by a punctuation or
// EOS carries it as the batch's last item), now is the timestamp of the
// last item (so the non-decreasing clock rule applies to whole
// batches), and the items slice is only valid for the duration of the
// call — drivers recycle batch buffers.
//
// Drivers probe for the interface and fall back to per-item Process
// (see ProcessAll), so implementing it is purely a performance
// statement: amortize per-call overhead, batch probe work.
type BatchProcessor interface {
	ProcessBatch(port int, items []stream.Item, now stream.Time) error
}

// ProcessAll delivers a batch to o: through ProcessBatch when o
// implements BatchProcessor, otherwise item by item. It is the generic
// shim batching drivers use so plain operators keep working unchanged.
func ProcessAll(o Operator, port int, items []stream.Item) error {
	if len(items) == 0 {
		return nil
	}
	if bp, ok := o.(BatchProcessor); ok {
		return bp.ProcessBatch(port, items, items[len(items)-1].Ts)
	}
	for _, it := range items {
		if err := o.Process(port, it, it.Ts); err != nil {
			return err
		}
	}
	return nil
}

// ValidatePort returns an error if port is outside [0, n).
func ValidatePort(name string, port, n int) error {
	if port < 0 || port >= n {
		return fmt.Errorf("op: %s: port %d out of range [0,%d)", name, port, n)
	}
	return nil
}
