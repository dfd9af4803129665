package exec

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/joinbase"
	"pjoin/internal/obs"
	"pjoin/internal/op"
	"pjoin/internal/parallel"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// tsAudit wraps the operator under test and checks the driver's
// restamping contract on what it is handed: one strictly increasing
// timestamp sequence across all ports, at every batch size. maxLen is
// the largest batch delivered.
type tsAudit struct {
	op.Operator
	last   stream.Time
	maxLen int
}

func (a *tsAudit) ProcessBatch(port int, items []stream.Item, now stream.Time) error {
	a.maxLen = max(a.maxLen, len(items))
	for _, it := range items {
		if it.Ts <= a.last {
			return fmt.Errorf("port %d: %v stamped %d after %d", port, it.Kind, it.Ts, a.last)
		}
		a.last = it.Ts
	}
	return op.ProcessAll(a.Operator, port, items)
}

// TestBatchedPipelineEquivalence pins the tentpole claim: the batch size
// is a value, not a mode. The same workload runs through every cell of
// BatchSize {0, 1, 8, 256} × linger {0, 1 ms} × shards {1, 2}; joined
// value multisets and propagated punctuation multisets must match the
// first cell exactly (live restamps differ, so timestamps are excluded —
// the same comparison TestShardedPJoinPipeline uses), EOS reaches the
// sink exactly once and last, and the join is handed strictly increasing
// timestamps in batches no larger than the batch size. BatchSize 0 and 1
// are the same cell twice: both deliver batches of one. The join's own
// accounting holds in every cell too: each propagated punctuation's delay
// is recorded once, every delivery is counted as a batch, and where every
// Emit cuts (batch <= 1 or linger 0) the mean batch fill is exactly 1.
func TestBatchedPipelineEquivalence(t *testing.T) {
	a, b := splitSynthetic(t, 17, 600, 8)

	run := func(batch int, linger time.Duration, shards int) (map[string]int, map[string]int) {
		p := NewPipeline()
		p.BatchSize = batch
		p.BatchLinger = linger
		srcA, srcB, out := p.Edge(), p.Edge(), p.Edge()
		cfg := core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB}
		cfg.Thresholds.PropagateCount = 1
		// Racing live sources interleave differently per run; retaining
		// propagated punctuations makes the propagated multiset
		// schedule-independent so it can be compared across cells.
		cfg.RetainPropagated = true
		var j interface {
			op.Operator
			Metrics() joinbase.Metrics
			Latencies() obs.LatSnapshot
		}
		var err error
		if shards > 1 {
			j, err = parallel.New(parallel.Config{Shards: shards, Join: cfg}, out)
		} else {
			j, err = core.New(cfg, out)
		}
		if err != nil {
			t.Fatal(err)
		}
		p.SourceItems(srcA, a, false)
		p.SourceItems(srcB, b, false)
		audit := &tsAudit{Operator: j}
		if err := p.Spawn(audit, srcA, srcB); err != nil {
			t.Fatal(err)
		}
		sink := p.Sink(out)
		if err := p.Run(context.Background()); err != nil {
			t.Fatalf("batch=%d linger=%v shards=%d: %v", batch, linger, shards, err)
		}
		if audit.maxLen > max(batch, 1) {
			t.Errorf("batch=%d linger=%v shards=%d: delivered a batch of %d items",
				batch, linger, shards, audit.maxLen)
		}
		for i, it := range sink.Items {
			if (it.Kind == stream.KindEOS) != (i == len(sink.Items)-1) {
				t.Errorf("batch=%d linger=%v shards=%d: sink item %d of %d is %v; want EOS exactly once, last",
					batch, linger, shards, i, len(sink.Items), it.Kind)
			}
		}
		m, lat := j.Metrics(), j.Latencies()
		if lat.PunctDelay.Count != m.PunctsOut {
			t.Errorf("batch=%d linger=%v shards=%d: PunctDelay.Count=%d, PunctsOut=%d: a propagation went unmeasured",
				batch, linger, shards, lat.PunctDelay.Count, m.PunctsOut)
		}
		if fill := lat.BatchFill.Mean(); m.Batches <= 0 || ((batch <= 1 || linger == 0) && fill != 1) {
			t.Errorf("batch=%d linger=%v shards=%d: %d batches, mean fill %v; want batches, and fill exactly 1 when every Emit cuts",
				batch, linger, shards, m.Batches, fill)
		}
		vals := map[string]int{}
		for _, tp := range sink.Tuples() {
			vals[valuesKey(tp)]++
		}
		puncts := map[string]int{}
		for _, it := range sink.Puncts() {
			puncts[it.Punct.String()]++
		}
		return vals, puncts
	}

	type cell struct {
		batch  int
		linger time.Duration
		shards int
	}
	var cells []cell
	for _, batch := range []int{0, 1, 8, 256} {
		for _, linger := range []time.Duration{0, time.Millisecond} {
			for _, shards := range []int{1, 2} {
				cells = append(cells, cell{batch, linger, shards})
			}
		}
	}
	cells = append(cells, cell{64, time.Millisecond, 2})
	diff := func(t *testing.T, name string, got, want map[string]int) {
		t.Helper()
		for k, n := range want {
			if got[k] != n {
				t.Errorf("%s %q: first cell %d, this cell %d", name, k, n, got[k])
			}
		}
		if len(got) != len(want) {
			t.Errorf("distinct %s: first cell %d, this cell %d", name, len(want), len(got))
		}
	}
	var wantVals, wantPuncts map[string]int
	for i, c := range cells {
		vals, puncts := run(c.batch, c.linger, c.shards)
		if i == 0 {
			wantVals, wantPuncts = vals, puncts
			if len(wantVals) == 0 || len(wantPuncts) == 0 {
				t.Fatalf("first cell: %d results, %d punct patterns", len(wantVals), len(wantPuncts))
			}
		}
		t.Run(fmt.Sprintf("batch%d_linger%v_shards%d", c.batch, c.linger, c.shards), func(t *testing.T) {
			diff(t, "result", vals, wantVals)
			diff(t, "punct", puncts, wantPuncts)
		})
	}
}

// wallLog records the wall-clock instant it first processes an item of
// each kind, so batching tests can assert when the executor actually
// delivered something — independent of restamped item timestamps, which
// deliberately hide edge queueing.
type wallLog struct {
	mu    sync.Mutex
	first map[stream.ItemKind]time.Time
	out   op.Emitter
}

func newWallLog(out op.Emitter) *wallLog {
	return &wallLog{first: map[stream.ItemKind]time.Time{}, out: out}
}

func (w *wallLog) Name() string              { return "wall-log" }
func (w *wallLog) NumPorts() int             { return 1 }
func (w *wallLog) OutSchema() *stream.Schema { return gen.SchemaA }

func (w *wallLog) Process(port int, it stream.Item, now stream.Time) error {
	w.mu.Lock()
	if _, ok := w.first[it.Kind]; !ok {
		w.first[it.Kind] = time.Now()
	}
	w.mu.Unlock()
	return nil
}

func (w *wallLog) OnIdle(stream.Time) (bool, error) { return false, nil }

func (w *wallLog) Finish(now stream.Time) error {
	return w.out.Emit(stream.EOSItem(now))
}

func (w *wallLog) firstAt(k stream.ItemKind) time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.first[k]
}

// TestPunctuationCutsBatch pins the propagation-latency rule:
// punctuations never wait in an edge buffer. With a huge batch size and
// a linger far beyond the test's lifetime, a buffered tuple run would
// sit until EOS — but the punctuation must flush the batch the moment
// it is emitted, so the operator sees it a source-stall earlier than
// the EOS.
func TestPunctuationCutsBatch(t *testing.T) {
	const stall = 300 * time.Millisecond
	p := NewPipeline()
	p.BatchSize = 1 << 20
	p.BatchLinger = time.Hour
	src, out := p.Edge(), p.Edge()
	w := newWallLog(out)
	p.launched = append(p.launched, func() {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer src.close()
			for _, it := range items(t, 5) {
				if src.Emit(it) != nil {
					return
				}
			}
			pi := stream.PunctItem(punct.MustKeyOnly(2, 0, punct.Const(value.Int(1))), 0)
			if src.Emit(pi) != nil {
				return
			}
			time.Sleep(stall)
			src.Emit(stream.EOSItem(0))
		}()
	})
	if err := p.Spawn(w, src); err != nil {
		t.Fatal(err)
	}
	p.Sink(out)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	punctAt, eosAt := w.firstAt(stream.KindPunct), w.firstAt(stream.KindEOS)
	if punctAt.IsZero() || eosAt.IsZero() {
		t.Fatalf("operator missed items: punct %v, eos %v", punctAt, eosAt)
	}
	if gap := eosAt.Sub(punctAt); gap < stall/2 {
		t.Errorf("punctuation was processed only %v before EOS; it waited in the "+
			"batch buffer through the %v source stall instead of cutting the batch", gap, stall)
	}
	// The tuples ahead of the punctuation ride the same cut.
	if tupAt := w.firstAt(stream.KindTuple); eosAt.Sub(tupAt) < stall/2 {
		t.Error("tuples before the punctuation were not flushed with it")
	}
}

// TestLingerBoundsTupleDelay pins the other half of the latency bound:
// with no punctuation to cut the batch and a batch size never reached,
// the linger timer alone must flush a waiting tuple within ~linger —
// not hold it until EOS.
func TestLingerBoundsTupleDelay(t *testing.T) {
	const (
		linger = 20 * time.Millisecond
		stall  = 400 * time.Millisecond
	)
	p := NewPipeline()
	p.BatchSize = 1 << 20
	p.BatchLinger = linger
	src, out := p.Edge(), p.Edge()
	w := newWallLog(out)
	p.launched = append(p.launched, func() {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer src.close()
			for _, it := range items(t, 3) {
				if src.Emit(it) != nil {
					return
				}
			}
			time.Sleep(stall)
			src.Emit(stream.EOSItem(0))
		}()
	})
	if err := p.Spawn(w, src); err != nil {
		t.Fatal(err)
	}
	p.Sink(out)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	tupAt, eosAt := w.firstAt(stream.KindTuple), w.firstAt(stream.KindEOS)
	if tupAt.IsZero() || eosAt.IsZero() {
		t.Fatal("operator missed items")
	}
	if gap := eosAt.Sub(tupAt); gap < stall/2 {
		t.Errorf("first tuple was processed only %v before EOS; the %v linger "+
			"timer did not flush it during the %v source stall", gap, linger, stall)
	}
}
