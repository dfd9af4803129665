package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// The tests in this file pin what a short edge promises (DESIGN.md §12):
// an edge owns at most edgeInFlight batches, a producer runs at most that
// far ahead of its consumer, and the one driver loop serves any number of
// ports.

// TestInFlightBoundPerEdge saturates two sources → PJoin → sink (unpaced
// sources, far more batches than an edge holds) at batch {1, 8, 256} ×
// linger {0, 1 ms} and reads every edge's lane afterwards: the fresh
// batches it ever allocated are at most edgeInFlight — edgeDepth queued, one
// filling or blocked in its send, one being processed — and none was
// dropped on its way back, so the edge ran its whole life on those few.
func TestInFlightBoundPerEdge(t *testing.T) {
	const waves, keys, perKey = 8, 8, 26
	a, b := fanoutInputOf(waves, keys, perKey)
	for _, batch := range []int{1, 8, 256} {
		for _, linger := range []time.Duration{0, time.Millisecond} {
			t.Run(fmt.Sprintf("batch%d_linger%v", batch, linger), func(t *testing.T) {
				p := NewPipeline()
				p.BatchSize = batch
				p.BatchLinger = linger
				srcA, srcB, joined := p.Edge(), p.Edge(), p.Edge()
				j, err := core.New(core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB}, joined)
				if err != nil {
					t.Fatal(err)
				}
				p.SourceItems(srcA, a, false)
				p.SourceItems(srcB, b, false)
				if err := p.Spawn(j, srcA, srcB); err != nil {
					t.Fatal(err)
				}
				count := &terminal{in: j.OutSchema()}
				if err := p.Spawn(count, joined); err != nil {
					t.Fatal(err)
				}
				if err := p.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
				if want := waves * keys * perKey * perKey; count.tuples != want {
					t.Fatalf("%d results, want %d", count.tuples, want)
				}
				for i, e := range p.edges {
					fresh, dropped := e.lane.Stats()
					if fresh > edgeInFlight || dropped != 0 {
						t.Errorf("edge %d: %d fresh batches, %d dropped; want at most %d and none",
							i, fresh, dropped, edgeInFlight)
					}
				}
				if gets, puts := p.pool.Stats(); gets != puts {
					t.Errorf("pool: %d gets, %d puts after a clean run", gets, puts)
				}
			})
		}
	}
}

// gated is a one-port operator whose Process calls wait for the gate: a
// consumer that has stalled holding one batch.
type gated struct {
	gate   chan struct{}
	tuples int
}

func (g *gated) Name() string              { return "gated" }
func (g *gated) NumPorts() int             { return 1 }
func (g *gated) OutSchema() *stream.Schema { return gen.SchemaA }
func (g *gated) Process(port int, it stream.Item, now stream.Time) error {
	<-g.gate
	if it.Kind == stream.KindTuple {
		g.tuples++
	}
	return nil
}
func (g *gated) OnIdle(stream.Time) (bool, error) { return false, nil }
func (g *gated) Finish(stream.Time) error         { return nil }

// TestSkewBoundedByBackPressure pins how far a producer runs ahead of a
// consumer that has stopped, on per-item edges: every edge on the way
// absorbs exactly edgeDepth + 1 items — its channel, and the one its
// consumer holds (stalled in Process, or blocked sending it on) — and the
// source's next Emit blocks until the consumer moves. One hop is source →
// stalled operator; two hops put a Select between them, so the pressure
// has to cross an operator.
//
// One source's lead over another feeding the same join is a different
// bound, the driver's alignment's (align_test.go, TestLiveStatePeakBounded).
func TestSkewBoundedByBackPressure(t *testing.T) {
	for hops := 1; hops <= 2; hops++ {
		t.Run(fmt.Sprintf("hops%d", hops), func(t *testing.T) {
			absorbed := hops * (edgeDepth + 1)
			const extra = 20
			p := NewPipeline()
			src := p.Edge()
			in := src
			if hops == 2 {
				in = p.Edge()
				sel, err := op.NewSelect(gen.SchemaA, func(*stream.Tuple) bool { return true }, in)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Spawn(sel, src); err != nil {
					t.Fatal(err)
				}
			}
			g := &gated{gate: make(chan struct{})}
			if err := p.Spawn(g, in); err != nil {
				t.Fatal(err)
			}
			its := append(items(t, absorbed+extra), stream.EOSItem(0))
			var emitted atomic.Int64
			ahead := make(chan struct{}) // closed once `absorbed` Emits have returned
			p.launched = append(p.launched, func() {
				p.wg.Add(1)
				go func() {
					defer p.wg.Done()
					defer src.close()
					for i, it := range its {
						if i == absorbed {
							close(ahead)
						}
						if src.Emit(it) != nil {
							return
						}
						emitted.Add(1)
					}
				}()
			})
			done := make(chan error, 1)
			go func() { done <- p.Run(context.Background()) }()

			select {
			case <-ahead:
			case <-time.After(10 * time.Second):
				t.Fatalf("the source could not get %d items ahead of a stalled consumer", absorbed)
			}
			// The next Emit must not return while the consumer is stalled.
			// Waiting can only miss a failure, never make one up.
			time.Sleep(50 * time.Millisecond)
			if n := emitted.Load(); n != int64(absorbed) {
				t.Errorf("%d Emits returned against a stalled consumer, want exactly %d", n, absorbed)
			}
			close(g.gate)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if g.tuples != absorbed+extra {
				t.Errorf("consumer saw %d tuples, want %d", g.tuples, absorbed+extra)
			}
		})
	}
}

// peakAudit wraps a join and records the most tuples its state held after
// any delivery. It opts into alignment as the join it wraps does.
type peakAudit struct {
	*core.PJoin
	peak int
}

func (a *peakAudit) ProcessBatch(port int, items []stream.Item, now stream.Time) error {
	err := op.ProcessAll(a.PJoin, port, items)
	a.peak = max(a.peak, a.StateTuples())
	return err
}

func newPeakAudit(tb testing.TB, out op.Emitter) *peakAudit {
	cfg := core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB}
	cfg.Thresholds.Purge = 1
	j, err := core.New(cfg, out)
	if err != nil {
		tb.Fatal(err)
	}
	return &peakAudit{PJoin: j}
}

// directPeak is the join's peak state over a and b fed in timestamp order:
// the two streams interleave one to one.
func directPeak(tb testing.TB, a, b []stream.Item) int {
	j := newPeakAudit(tb, op.EmitterFunc(func(stream.Item) error { return nil }))
	for i := range a {
		for port, it := range []stream.Item{a[i], b[i]} {
			if err := j.ProcessBatch(port, []stream.Item{it}, it.Ts); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return j.peak
}

// livePeak runs two unpaced sources → PJoin → terminal over a and b at the
// given batch size (1 ms linger) and returns the join's peak state.
func livePeak(tb testing.TB, a, b []stream.Item, batch int) int {
	p := NewPipeline()
	p.BatchSize = batch
	p.BatchLinger = time.Millisecond
	srcA, srcB, joined := p.Edge(), p.Edge(), p.Edge()
	j := newPeakAudit(tb, joined)
	p.SourceItems(srcA, a, false)
	p.SourceItems(srcB, b, false)
	if err := p.Spawn(j, srcA, srcB); err != nil {
		tb.Fatal(err)
	}
	if err := p.Spawn(&terminal{in: j.OutSchema()}, joined); err != nil {
		tb.Fatal(err)
	}
	if err := p.Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return j.peak
}

// TestLiveStatePeakBounded guards the driver's alignment: a saturated
// two-source → PJoin run builds at most twice the state the same input
// builds fed in timestamp order, at every batch size, run after run. The
// input closes every key of a 16-key wave when the wave ends, so in
// timestamp order the join holds one wave per side; without alignment it
// also held however far the racing sources drifted apart, 5 to 6.5 times
// that at batch 1 (BenchmarkLiveStatePeak; EXPERIMENTS.md, "Live state
// against the direct drive").
func TestLiveStatePeakBounded(t *testing.T) {
	a, b := fanoutInputOf(16, 16, 26)
	direct := directPeak(t, a, b)
	for _, batch := range []int{1, 8, 256} {
		for run := 0; run < 3; run++ {
			if live := livePeak(t, a, b, batch); live > 2*direct {
				t.Errorf("batch %d run %d: live peak %d tuples, %.1f × the direct-drive peak %d; want at most 2 ×",
					batch, run, live, float64(live)/float64(direct), direct)
			}
		}
	}
}

// BenchmarkLiveStatePeak reports, next to the time of a saturated two-source
// → PJoin → terminal run, how much state the join built against the same
// input fed in timestamp order (peak_x_direct), over 64 waves.
// TestLiveStatePeakBounded is the guard; this is the reporter. On 2 CPUs
// it reads 1.00 at batch 1 and 8 and 0.94 at batch 256, where before the
// driver's alignment it read 15 to 21, 6.5 to 22 and 0.9 to 4
// (EXPERIMENTS.md, "Live state against the direct drive").
func BenchmarkLiveStatePeak(b *testing.B) {
	ia, ib := fanoutInputOf(64, 16, 26)
	direct := directPeak(b, ia, ib)
	for _, batch := range []int{1, 8, 256} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				ratio += float64(livePeak(b, ia, ib, batch)) / float64(direct)
			}
			b.ReportMetric(ratio/float64(b.N), "peak_x_direct")
		})
	}
}

// portLog is an n-port operator that records, per port, the payloads it
// was handed and how often Finish ran.
type portLog struct {
	ports    int
	seen     [][]string
	finished int
}

func (l *portLog) Name() string              { return "port-log" }
func (l *portLog) NumPorts() int             { return l.ports }
func (l *portLog) OutSchema() *stream.Schema { return gen.SchemaA }
func (l *portLog) Process(port int, it stream.Item, now stream.Time) error {
	if it.Kind == stream.KindTuple {
		l.seen[port] = append(l.seen[port], it.Tuple.Values[1].StrVal())
	}
	return nil
}
func (l *portLog) OnIdle(stream.Time) (bool, error) { return false, nil }
func (l *portLog) Finish(stream.Time) error         { l.finished++; return nil }

// TestThreePortDriver runs the driver loop past two ports: three sources of
// different lengths into one operator, the middle one ending at once (EOS,
// then its edge closes while the others are still sending). Every port's
// items arrive complete and in order and the operator finishes once.
func TestThreePortDriver(t *testing.T) {
	for _, batch := range []int{1, 8} {
		p := NewPipeline()
		p.BatchSize = batch
		lens := []int{300, 0, 120}
		l := &portLog{ports: len(lens), seen: make([][]string, len(lens))}
		ins := make([]*Edge, len(lens))
		for port, n := range lens {
			ins[port] = p.Edge()
			p.SourceItems(ins[port], items(t, n), false)
		}
		if err := p.Spawn(l, ins...); err != nil {
			t.Fatal(err)
		}
		if err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		for port, n := range lens {
			if len(l.seen[port]) != n {
				t.Fatalf("batch %d port %d: %d tuples, want %d", batch, port, len(l.seen[port]), n)
			}
			for i, got := range l.seen[port] {
				if want := fmt.Sprintf("a%d", i); got != want {
					t.Fatalf("batch %d port %d item %d: %q, want %q", batch, port, i, got, want)
				}
			}
		}
		if l.finished != 1 {
			t.Errorf("batch %d: Finish ran %d times, want 1", batch, l.finished)
		}
	}
}

// TestPortClosedWithoutEOS: an edge that closes before its EOS is a
// protocol error the driver reports as soon as it sees the close, naming
// the port — here while another port is nowhere near its end (its paced
// source is an hour out), where waiting for every input to close would
// wait that hour.
func TestPortClosedWithoutEOS(t *testing.T) {
	p := NewPipeline()
	l := &portLog{ports: 3, seen: make([][]string, 3)}
	ins := []*Edge{p.Edge(), p.Edge(), p.Edge()}
	never := []stream.Item{stream.TupleItem(stream.MustTuple(gen.SchemaA,
		stream.Time(time.Hour), value.Int(1), value.Str("never")))}
	p.SourceItems(ins[0], never, true)
	p.source(ins[1], items(t, 3), false, false) // no EOS
	p.SourceItems(ins[2], items(t, 40), false)
	if err := p.Spawn(l, ins...); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "input 1 closed before its EOS") {
			t.Errorf("err = %v, want input 1 closed before its EOS", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run is still waiting for the other inputs to close")
	}
	if l.finished != 0 {
		t.Error("Finish ran on a stream that never ended")
	}
}

// idleLog records when its last tuple arrived and when each idle pulse did.
type idleLog struct {
	mu       sync.Mutex
	lastItem time.Time
	idles    []time.Time
}

func (l *idleLog) Name() string              { return "idle-log" }
func (l *idleLog) NumPorts() int             { return 1 }
func (l *idleLog) OutSchema() *stream.Schema { return gen.SchemaA }
func (l *idleLog) Process(port int, it stream.Item, now stream.Time) error {
	if it.Kind == stream.KindTuple {
		l.mu.Lock()
		l.lastItem = time.Now()
		l.mu.Unlock()
	}
	return nil
}
func (l *idleLog) OnIdle(stream.Time) (bool, error) {
	l.mu.Lock()
	l.idles = append(l.idles, time.Now())
	l.mu.Unlock()
	return false, nil
}
func (l *idleLog) Finish(stream.Time) error { return nil }

// TestIdlePulseTiming pins the idle tick, which the driver no longer
// re-arms per batch. While a source keeps delivering, no OnIdle fires
// however long that lasts: a pulse needs a whole tick interval without a
// delivery (one is tolerated, for a source the scheduler parked that
// long; a tick that ignored deliveries would show about busy / poll of
// them). Once the source stalls, the first pulse comes at the first tick
// that saw nothing delivered since the tick before — between one and two
// IdlePoll after the last delivery; the check allows the scheduler 10
// IdlePoll on top — and then one per IdlePoll.
func TestIdlePulseTiming(t *testing.T) {
	const (
		poll  = 20 * time.Millisecond
		busy  = 5 * poll
		stall = 20 * poll
	)
	p := NewPipeline()
	p.IdlePoll = poll
	src := p.Edge()
	l := &idleLog{}
	it := items(t, 1)[0]
	var stalledAt time.Time
	p.launched = append(p.launched, func() {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer src.close()
			for start := time.Now(); time.Since(start) < busy; {
				if src.Emit(it) != nil {
					return
				}
			}
			stalledAt = time.Now()
			time.Sleep(stall)
			src.Emit(stream.EOSItem(0))
		}()
	})
	if err := p.Spawn(l, src); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var whileBusy, after []time.Time
	for _, at := range l.idles {
		if at.Before(stalledAt) {
			whileBusy = append(whileBusy, at)
		} else if at.After(l.lastItem) {
			after = append(after, at)
		}
	}
	if len(whileBusy) > 1 {
		t.Errorf("%d idle pulses while the source was delivering, want none", len(whileBusy))
	}
	if len(after) == 0 {
		t.Fatalf("no idle pulse in a %v stall at IdlePoll %v", stall, poll)
	}
	if gap := after[0].Sub(l.lastItem); gap > (2+10)*poll {
		t.Errorf("first idle pulse %v after the last delivery, want within 2 × IdlePoll = %v", gap, 2*poll)
	}
	if least := int(stall/poll) / 2; len(after) < least {
		t.Errorf("%d idle pulses in a %v stall, want about one per IdlePoll (%v), at least %d", len(after), stall, poll, least)
	}
}
