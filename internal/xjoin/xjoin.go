// Package xjoin implements the XJoin operator (Urhan & Franklin) as the
// paper's comparison baseline: a symmetric hash join that resolves
// memory overflow by relocating partitions to secondary storage,
// reactively schedules background disk joins while the inputs are
// stalled, and runs a final clean-up pass at end-of-stream. XJoin has no
// constraint-exploiting mechanism: punctuations are consumed and
// discarded, and the state grows with the streams.
//
// The duplicate-avoidance machinery (residence intervals + per-bucket
// pass watermarks) is shared with PJoin via internal/joinbase; it is the
// moral equivalent of XJoin's ATS/DTS timestamps and probe history
// lists.
package xjoin

import (
	"fmt"

	"pjoin/internal/event"
	"pjoin/internal/joinbase"
	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/op"
	"pjoin/internal/store"
	"pjoin/internal/stream"
)

// Config configures an XJoin instance.
type Config struct {
	// SchemaA and SchemaB describe the two inputs (ports 0 and 1).
	SchemaA, SchemaB *stream.Schema
	// AttrA and AttrB are the join attribute positions.
	AttrA, AttrB int
	// OutName names the result schema (default "join").
	OutName string
	// NumBuckets is the hash table size per state (default 64).
	NumBuckets int
	// SpillA and SpillB provide secondary storage (default in-memory
	// simulated disks).
	SpillA, SpillB store.SpillStore
	// MemoryBytes is the memory threshold that triggers state
	// relocation; 0 disables spilling (the state grows unboundedly).
	MemoryBytes int64
	// DiskJoinIdle is the reactive disk-join activation threshold: how
	// long the inputs must stall before a background disk pass runs.
	DiskJoinIdle stream.Time
	// DiskChunkBytes is the disk join's step budget: when positive, passes
	// run as a resumable background task reading spill data in chunks of
	// at most this many bytes, stepped once per input item, so the hot
	// path never stalls for a whole pass. 0 runs each pass to completion
	// inside the call that schedules it. See core.Config.DiskChunkBytes.
	DiskChunkBytes int
	// Instr is the observability handle (tracing + live metrics); nil
	// disables observability (see internal/obs).
	Instr *obs.Instr
}

// XJoin is the baseline stream join. It implements op.Operator with two
// input ports.
type XJoin struct {
	cfg   Config
	base  *joinbase.Base
	out   op.Emitter
	mon   *event.Monitor
	attrs [2]int
	outSc *stream.Schema
	// lat holds the latency histograms (see core.PJoin.lat). XJoin never
	// propagates, so its PunctDelay histogram stays empty — the missing
	// signal is the baseline's story, same as the absent punct-lag gauge.
	lat *obs.Lat

	// disk schedules, times and traces the disk join. XJoin has no
	// punctuation lifecycle — punctuations are discarded — so its span
	// output is tuple and pass provenance only; the missing punct traces
	// are, like the absent punct-lag gauge, the baseline's story.
	disk *joinbase.PassDriver

	// kept holds the copies of borrowed arrivals the state retains (see
	// core.PJoin.Process).
	kept stream.ResultSlab

	now      stream.Time
	eos      [2]bool
	finished bool
}

var (
	_ op.Operator       = (*XJoin)(nil)
	_ op.BatchProcessor = (*XJoin)(nil)
)

// New builds an XJoin bound to out.
func New(cfg Config, out op.Emitter) (*XJoin, error) {
	if cfg.SchemaA == nil || cfg.SchemaB == nil {
		return nil, fmt.Errorf("xjoin: both input schemas required")
	}
	if out == nil {
		return nil, fmt.Errorf("xjoin: output emitter required")
	}
	if cfg.AttrA < 0 || cfg.AttrA >= cfg.SchemaA.Width() {
		return nil, fmt.Errorf("xjoin: join attribute A %d out of range for %s", cfg.AttrA, cfg.SchemaA)
	}
	if cfg.AttrB < 0 || cfg.AttrB >= cfg.SchemaB.Width() {
		return nil, fmt.Errorf("xjoin: join attribute B %d out of range for %s", cfg.AttrB, cfg.SchemaB)
	}
	if ka, kb := cfg.SchemaA.FieldAt(cfg.AttrA).Kind, cfg.SchemaB.FieldAt(cfg.AttrB).Kind; ka != kb {
		return nil, fmt.Errorf("xjoin: join attribute kinds differ: %s vs %s", ka, kb)
	}
	if cfg.OutName == "" {
		cfg.OutName = "join"
	}
	if cfg.NumBuckets == 0 {
		cfg.NumBuckets = 64
	}
	if cfg.SpillA == nil {
		cfg.SpillA = store.NewMemSpill()
	}
	if cfg.SpillB == nil {
		cfg.SpillB = store.NewMemSpill()
	}

	outSc, err := cfg.SchemaA.Concat(cfg.OutName, cfg.SchemaB)
	if err != nil {
		return nil, err
	}
	stA, err := store.NewState(cfg.SchemaA.Name(), cfg.AttrA, cfg.NumBuckets, cfg.SpillA)
	if err != nil {
		return nil, err
	}
	stB, err := store.NewState(cfg.SchemaB.Name(), cfg.AttrB, cfg.NumBuckets, cfg.SpillB)
	if err != nil {
		return nil, err
	}
	x := &XJoin{cfg: cfg, out: out, attrs: [2]int{cfg.AttrA, cfg.AttrB}, outSc: outSc, lat: obs.NewLat()}
	x.base, err = joinbase.New(stA, stB, outSc, func(t *stream.Tuple) error {
		x.noteResult(t.Ts, t.Span)
		return out.Emit(stream.TupleItem(t))
	})
	if err != nil {
		return nil, err
	}
	if je, ok := out.(op.JoinEmitter); ok {
		// See core.New: the output builds the results.
		x.base.EmitPair = func(a, c *stream.Tuple, ts stream.Time) error {
			x.noteResult(ts, stream.JoinSpan(a, c))
			return je.EmitJoin(a, c, ts)
		}
	}
	x.base.Obs = cfg.Instr
	x.disk = joinbase.NewPassDriver(x.base, x.lat, cfg.DiskChunkBytes, joinbase.PassHooks{}, nil)
	x.base.RegisterGauges(x.Name())

	reg := event.NewRegistry()
	relocate := event.ListenerFunc{ID: "state-relocation", Fn: func(e event.Event) error {
		return x.base.Relocate(e.At+1, x.cfg.MemoryBytes, nil)
	}}
	diskJoin := event.ListenerFunc{ID: "disk-join", Fn: func(e event.Event) error {
		return x.disk.Activate(e.At)
	}}
	if err := reg.Register(event.StateFull, nil, "memory threshold reached", relocate); err != nil {
		return nil, err
	}
	if err := reg.Register(event.DiskJoinActivate, nil, "inputs stalled", diskJoin); err != nil {
		return nil, err
	}
	if err := reg.Register(event.StreamEmpty, nil, "both inputs ended", diskJoin); err != nil {
		return nil, err
	}
	x.mon, err = event.NewMonitor(reg, event.Thresholds{
		MemoryBytes:  cfg.MemoryBytes,
		DiskJoinIdle: cfg.DiskJoinIdle,
	})
	if err != nil {
		return nil, err
	}
	return x, nil
}

// noteResult records one emitted result (see core.PJoin.noteResult).
func (x *XJoin) noteResult(ts stream.Time, sp uint64) {
	x.lat.RecordResult(x.now, ts)
	if sp != 0 && x.base.ResultSpans > 0 && x.cfg.Instr.Enabled() {
		x.base.ResultSpans--
		x.cfg.Instr.Span(span.KindTupleResult, sp, x.now, -1, 0, 0, 0, int64(x.now-ts))
	}
}

// Name implements op.Operator.
func (x *XJoin) Name() string { return "xjoin" }

// NumPorts implements op.Operator.
func (x *XJoin) NumPorts() int { return 2 }

// OutSchema implements op.Operator.
func (x *XJoin) OutSchema() *stream.Schema { return x.outSc }

// Metrics returns the accumulated work counters.
func (x *XJoin) Metrics() joinbase.Metrics { return x.base.M }

// Latencies returns a snapshot of the operator's latency histograms.
// PunctDelay and Purge are always empty for XJoin (it neither
// propagates nor purges). Safe from any goroutine while running.
func (x *XJoin) Latencies() obs.LatSnapshot { return x.lat.Snapshot() }

// StateStats returns the size accounting of both states.
func (x *XJoin) StateStats() (a, b store.Stats) {
	return x.base.States[0].Stats(), x.base.States[1].Stats()
}

// StateTuples returns the total tuples held in the join state.
func (x *XJoin) StateTuples() int {
	a, b := x.StateStats()
	return a.TotalTuples() + b.TotalTuples()
}

// Process implements op.Operator. Timestamps must be strictly
// increasing across all items, and a tuple's arrival time is it.Ts (see
// core.PJoin.Process for both).
func (x *XJoin) Process(port int, it stream.Item, now stream.Time) error {
	if err := op.ValidatePort(x.Name(), port, 2); err != nil {
		return err
	}
	if x.finished {
		return fmt.Errorf("xjoin: Process after Finish")
	}
	x.now = max(x.now, now)
	x.base.Obs.Tick(x.now)
	switch it.Kind {
	case stream.KindTuple:
		t := x.kept.Keep(it).Tuple
		x.base.M.TuplesIn[port]++
		if err := x.mon.TupleArrived(it.Ts); err != nil {
			return err
		}
		examBefore := x.base.M.Examined
		matches, err := x.base.ProbeOppositeAt(port, t, it.Ts)
		if err != nil {
			return err
		}
		if t.Span != 0 && x.cfg.Instr.Enabled() {
			x.cfg.Instr.Span(span.KindTupleProbe, t.Span, it.Ts, port,
				int64(matches), x.base.M.Examined-examBefore, 0, 0)
		}
		if _, err := x.base.States[port].InsertAt(t, it.Ts); err != nil {
			return err
		}
		if err := x.mon.StateSize(x.base.States[0].MemBytes()+x.base.States[1].MemBytes(), it.Ts); err != nil {
			return err
		}
		return x.disk.Pump(x.now)
	case stream.KindPunct:
		// No constraint-exploiting mechanism: punctuations are ignored.
		x.base.M.PunctsIn[port]++
		x.base.Obs.Span(span.KindPunctDiscard, 0, it.Ts, port, 0, 0, 0, 0)
		return x.disk.Pump(x.now)
	case stream.KindEOS:
		if x.eos[port] {
			return fmt.Errorf("xjoin: duplicate EOS on port %d", port)
		}
		x.eos[port] = true
		if x.eos[0] && x.eos[1] {
			return x.mon.StreamsEnded(x.now)
		}
		return nil
	default:
		return fmt.Errorf("xjoin: unknown item kind %v", it.Kind)
	}
}

// ProcessBatch implements op.BatchProcessor: per-item semantics, one
// driver wakeup per batch. See core.PJoin.ProcessBatch.
func (x *XJoin) ProcessBatch(port int, items []stream.Item, now stream.Time) error {
	x.base.M.Batches++
	x.lat.RecordBatchFill(len(items))
	for _, it := range items {
		if err := x.Process(port, it, it.Ts); err != nil {
			return err
		}
	}
	x.base.InvalidateProbeCache()
	return nil
}

// OnIdle implements op.Operator: XJoin's reactive background stage.
func (x *XJoin) OnIdle(now stream.Time) (bool, error) {
	x.now = max(x.now, now)
	before := x.base.M.DiskChunks
	if err := x.mon.Idle(x.now); err != nil {
		return false, err
	}
	if err := x.disk.Pump(x.now); err != nil {
		return false, err
	}
	return x.base.M.DiskChunks > before, nil
}

// Finish implements op.Operator: the clean-up stage joins everything
// still owed from disk, then forwards EOS.
func (x *XJoin) Finish(now stream.Time) error {
	if x.finished {
		return fmt.Errorf("xjoin: double Finish")
	}
	if !x.eos[0] || !x.eos[1] {
		return fmt.Errorf("xjoin: Finish before EOS on both ports")
	}
	x.now = max(x.now, now)
	if err := x.disk.Finish(x.now); err != nil {
		return err
	}
	x.finished = true
	if lv := x.cfg.Instr.Live(); lv != nil {
		lv.Flush(x.now) // final sample so the series ends at the run's last state
	}
	return x.out.Emit(stream.EOSItem(x.now))
}
