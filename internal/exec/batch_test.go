package exec

import (
	"context"
	"sync"
	"testing"
	"time"

	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

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
