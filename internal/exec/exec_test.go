package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

func items(t *testing.T, n int) []stream.Item {
	t.Helper()
	var out []stream.Item
	for i := 0; i < n; i++ {
		out = append(out, stream.TupleItem(stream.MustTuple(gen.SchemaA, stream.Time(i+1),
			value.Int(int64(i%5)), value.Str(fmt.Sprintf("a%d", i)))))
	}
	return out
}

func TestPassThroughPipeline(t *testing.T) {
	p := NewPipeline()
	src := p.Edge()
	out := p.Edge()
	sel, err := op.NewSelect(gen.SchemaA, func(*stream.Tuple) bool { return true }, out)
	if err != nil {
		t.Fatal(err)
	}
	p.SourceItems(src, items(t, 50), false)
	if err := p.Spawn(sel, src); err != nil {
		t.Fatal(err)
	}
	sink := p.Sink(out)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Tuples()); got != 50 {
		t.Errorf("tuples through = %d", got)
	}
	last := sink.Items[len(sink.Items)-1]
	if last.Kind != stream.KindEOS {
		t.Error("missing EOS at sink")
	}
}

func TestTimestampsStrictlyIncreaseAcrossPorts(t *testing.T) {
	p := NewPipeline()
	srcA, srcB, out := p.Edge(), p.Edge(), p.Edge()
	j, err := core.New(core.Config{
		SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
	}, out)
	if err != nil {
		t.Fatal(err)
	}
	var a, b []stream.Item
	for i := 0; i < 100; i++ {
		a = append(a, stream.TupleItem(stream.MustTuple(gen.SchemaA, 0, value.Int(int64(i%7)), value.Str("a"))))
		b = append(b, stream.TupleItem(stream.MustTuple(gen.SchemaB, 0, value.Int(int64(i%7)), value.Str("b"))))
	}
	p.SourceItems(srcA, a, false)
	p.SourceItems(srcB, b, false)
	if err := p.Spawn(j, srcA, srcB); err != nil {
		t.Fatal(err)
	}
	sink := p.Sink(out)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 100 x 100 over 7 keys: floor/ceil split; just verify plenty of
	// results and strictly increasing result availability.
	if got := len(sink.Tuples()); got < 1000 {
		t.Errorf("results = %d", got)
	}
}

func TestLiveFig1Plan(t *testing.T) {
	// The paper's Fig. 1(c): Open JOIN Bid on item_id, then group-by
	// item_id summing bid_increase, with punctuations driving early
	// emission all the way through.
	arrs, err := gen.Auction(gen.AuctionConfig{
		Seed:            5,
		Items:           30,
		OpenMean:        stream.Time(200_000), // 0.2ms: fast for a live test
		AuctionLength:   stream.Time(3_000_000),
		BidMean:         stream.Time(500_000),
		UniqueOpenPunct: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var open, bid []stream.Item
	var bids int
	for _, a := range arrs {
		if a.Port == gen.AuctionPortOpen {
			open = append(open, a.Item)
		} else {
			bid = append(bid, a.Item)
			if a.Item.Kind == stream.KindTuple {
				bids++
			}
		}
	}

	p := NewPipeline()
	srcO, srcB, joined, grouped := p.Edge(), p.Edge(), p.Edge(), p.Edge()
	cfg := core.Config{
		SchemaA: gen.OpenSchema, SchemaB: gen.BidSchema,
		AttrA: 0, AttrB: 0,
	}
	cfg.Thresholds.Purge = 1
	cfg.Thresholds.PropagateCount = 1
	j, err := core.New(cfg, joined)
	if err != nil {
		t.Fatal(err)
	}
	outSchema := j.OutSchema()
	incAttr := outSchema.MustIndexOf("bid_increase")
	gb, err := op.NewGroupBy(outSchema, 0, incAttr, op.AggSum, grouped)
	if err != nil {
		t.Fatal(err)
	}
	p.SourceItems(srcO, open, false)
	p.SourceItems(srcB, bid, false)
	if err := p.Spawn(j, srcO, srcB); err != nil {
		t.Fatal(err)
	}
	if err := p.Spawn(gb, joined); err != nil {
		t.Fatal(err)
	}
	sink := p.Sink(grouped)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// One aggregate row per item that received at least one bid.
	rows := sink.Tuples()
	if len(rows) == 0 || len(rows) > 30 {
		t.Fatalf("group rows = %d", len(rows))
	}
	// Punctuations propagated through join AND group-by.
	if len(sink.Puncts()) == 0 {
		t.Error("no punctuations made it downstream")
	}
	// Early emission: the group-by released results before EOS.
	if gb.EarlyEmitted() == 0 {
		t.Error("punctuations did not drive early group emission")
	}
	// The join state should be fully purged by the auction punctuations.
	if got := j.StateTuples(); got != 0 {
		t.Errorf("join state = %d at end", got)
	}
}

// TestKeyPunctuatorFeedsJoin derives the Open stream's punctuations in
// the pipeline instead of at the source (paper §1.1: item_id is a key of
// Open): a KeyPunctuator in front of the join's left input punctuates
// each Open tuple's item_id after it, so the join probes a later bid of
// that item and drops it on the fly: no Open tuple can join it again.
func TestKeyPunctuatorFeedsJoin(t *testing.T) {
	arrs, err := gen.Auction(gen.AuctionConfig{
		Seed: 3, Items: 20,
		OpenMean: stream.Time(200_000), AuctionLength: stream.Time(3_000_000),
		BidMean: stream.Time(500_000), UniqueOpenPunct: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	var open, bid []stream.Item
	for _, a := range arrs {
		if a.Port == gen.AuctionPortOpen {
			open = append(open, a.Item)
		} else {
			bid = append(bid, a.Item)
		}
	}
	p := NewPipeline()
	raw, srcO, srcB, joined := p.Edge(), p.Edge(), p.Edge(), p.Edge()
	kp, err := op.NewKeyPunctuator(gen.OpenSchema, 0, srcO)
	if err != nil {
		t.Fatal(err)
	}
	j, err := core.New(core.Config{SchemaA: gen.OpenSchema, SchemaB: gen.BidSchema, Thresholds: core.Thresholds{PropagateCount: 1}}, joined)
	if err != nil {
		t.Fatal(err)
	}
	p.SourceItems(raw, open, false)
	p.SourceItems(srcB, bid, false)
	if err := p.Spawn(kp, raw); err != nil {
		t.Fatal(err)
	}
	if err := p.Spawn(j, srcO, srcB); err != nil {
		t.Fatal(err)
	}
	p.Sink(joined)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := kp.Derived(); got != 20 {
		t.Errorf("derived %d punctuations, want one per Open tuple (20)", got)
	}
	if j.Metrics().DroppedOnFly == 0 {
		t.Error("derived punctuations never let the join drop a tuple on the fly")
	}
}

func TestOperatorErrorPropagates(t *testing.T) {
	p := NewPipeline()
	src, out := p.Edge(), p.Edge()
	boom := errors.New("boom")
	bad := op.EmitterFunc(func(stream.Item) error { return boom })
	sel, _ := op.NewSelect(gen.SchemaA, func(*stream.Tuple) bool { return true }, bad)
	p.SourceItems(src, items(t, 5), false)
	if err := p.Spawn(sel, src); err != nil {
		t.Fatal(err)
	}
	_ = out
	err := p.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v", err)
	}
}

func TestSpawnValidation(t *testing.T) {
	p := NewPipeline()
	src := p.Edge()
	sel, _ := op.NewSelect(gen.SchemaA, func(*stream.Tuple) bool { return true }, p.Edge())
	if err := p.Spawn(nil, src); err == nil {
		t.Error("nil operator should error")
	}
	if err := p.Spawn(sel); err == nil {
		t.Error("port count mismatch should error")
	}
	if err := p.Spawn(sel, nil); err == nil {
		t.Error("nil edge should error")
	}
	if err := p.Spawn(&portLog{}); err == nil {
		t.Error("an operator without input ports should error")
	}

	// An edge has one reader. Each case below wires a second one onto a
	// source's edge: Spawn refuses it and leaves the first reader's wiring
	// runnable, or, for a Sink, Run fails before launching anything (no
	// batch is ever drawn).
	selectOn := func(p *Pipeline, in *Edge) error {
		out := p.Edge()
		sel, _ := op.NewSelect(gen.SchemaA, func(*stream.Tuple) bool { return true }, out)
		if err := p.Spawn(sel, in); err != nil {
			return err
		}
		p.Sink(out)
		return nil
	}
	for _, c := range []struct {
		name  string
		atRun bool // a Sink returns no error: Run refuses the pipeline
		wire  func(p *Pipeline, src *Edge) error
	}{
		{"spawn_after_spawn", false, func(p *Pipeline, src *Edge) error {
			if err := selectOn(p, src); err != nil {
				t.Fatal(err)
			}
			return selectOn(p, src)
		}},
		{"spawn_after_sink", false, func(p *Pipeline, src *Edge) error {
			p.Sink(src)
			return selectOn(p, src)
		}},
		{"one_edge_two_ports", false, func(p *Pipeline, src *Edge) error {
			j, err := core.New(core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaA}, p.Edge())
			if err != nil {
				t.Fatal(err)
			}
			err = p.Spawn(j, src, src)
			p.Sink(src)
			return err
		}},
		{"spawn_same_operator_twice", false, func(p *Pipeline, src *Edge) error {
			// The second edge is read by a Sink whether or not the
			// second Spawn is refused: accepted, it would make Run fail.
			out, other := p.Edge(), p.Edge()
			sel, _ := op.NewSelect(gen.SchemaA, func(*stream.Tuple) bool { return true }, out)
			if err := p.Spawn(sel, src); err != nil {
				t.Fatal(err)
			}
			p.Sink(out)
			p.SourceItems(other, items(t, 20), false)
			err := p.Spawn(sel, other)
			p.Sink(other)
			return err
		}},
		{"sink_after_spawn", true, func(p *Pipeline, src *Edge) error {
			if err := selectOn(p, src); err != nil {
				t.Fatal(err)
			}
			p.Sink(src)
			return nil
		}},
		{"sink_after_sink", true, func(p *Pipeline, src *Edge) error {
			p.Sink(src)
			p.Sink(src)
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := NewPipeline()
			src := p.Edge()
			p.SourceItems(src, items(t, 20), false)
			wireErr := c.wire(p, src)
			err := p.Run(context.Background())
			switch gets, _ := p.pool.Stats(); {
			case !c.atRun && wireErr == nil:
				t.Errorf("a second reader was accepted (Run: %v)", err)
			case !c.atRun && err != nil:
				t.Errorf("the refused reader broke the first one's run: %v", err)
			case c.atRun && (err == nil || gets != 0):
				t.Errorf("Run with a second reader on one edge drew %d batches and returned %v", gets, err)
			}
		})
	}
}

func TestExternalCancellation(t *testing.T) {
	p := NewPipeline()
	src, out := p.Edge(), p.Edge()
	sel, _ := op.NewSelect(gen.SchemaA, func(*stream.Tuple) bool { return true }, out)
	// A paced source far in the future keeps the pipeline alive.
	far := []stream.Item{stream.TupleItem(stream.MustTuple(gen.SchemaA,
		stream.Time(time.Hour), value.Int(1), value.Str("never")))}
	p.SourceItems(src, far, true)
	if err := p.Spawn(sel, src); err != nil {
		t.Fatal(err)
	}
	p.Sink(out)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := p.Run(ctx)
	if err == nil {
		t.Error("cancelled run should report an error")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancellation took too long")
	}
}

func TestIncompleteEOSDetected(t *testing.T) {
	p := NewPipeline()
	src, out := p.Edge(), p.Edge()
	sel, _ := op.NewSelect(gen.SchemaA, func(*stream.Tuple) bool { return true }, out)
	// Source WITHOUT EOS: channel closes early.
	p.source(src, items(t, 3), false, false)
	if err := p.Spawn(sel, src); err != nil {
		t.Fatal(err)
	}
	p.Sink(out)
	err := p.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "EOS") {
		t.Errorf("err = %v", err)
	}
}

func TestLivePunctuationPropagation(t *testing.T) {
	p := NewPipeline()
	srcA, srcB, out := p.Edge(), p.Edge(), p.Edge()
	cfg := core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB}
	cfg.Thresholds.PropagateCount = 1
	j, err := core.New(cfg, out)
	if err != nil {
		t.Fatal(err)
	}
	keyP := func(k int64) stream.Item {
		return stream.PunctItem(punct.MustKeyOnly(2, 0, punct.Const(value.Int(k))), 0)
	}
	a := []stream.Item{
		stream.TupleItem(stream.MustTuple(gen.SchemaA, 0, value.Int(1), value.Str("a"))),
		keyP(1),
	}
	b := []stream.Item{
		stream.TupleItem(stream.MustTuple(gen.SchemaB, 0, value.Int(1), value.Str("b"))),
		keyP(1),
	}
	p.SourceItems(srcA, a, false)
	p.SourceItems(srcB, b, false)
	if err := p.Spawn(j, srcA, srcB); err != nil {
		t.Fatal(err)
	}
	sink := p.Sink(out)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.Tuples()); got != 1 {
		t.Errorf("results = %d", got)
	}
	if got := len(sink.Puncts()); got != 2 {
		t.Errorf("live propagation emitted %d punctuations, want 2", got)
	}
}

// TestPullModePropagationThroughPipeline wires §3.5's pull mode live:
// the join has NO push propagation configured; the group-by requests
// punctuations whenever it holds too many open groups, and the request
// is serviced by the join's own goroutine.
func TestPullModePropagationThroughPipeline(t *testing.T) {
	arrs, err := gen.Synthetic(gen.Config{
		Seed:     4,
		Duration: 300 * stream.Millisecond,
		A:        gen.SideSpec{TupleMean: stream.Millisecond, PunctMean: 5},
		B:        gen.SideSpec{TupleMean: stream.Millisecond, PunctMean: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	var a, b []stream.Item
	for _, ar := range arrs {
		if ar.Port == 0 {
			a = append(a, ar.Item)
		} else {
			b = append(b, ar.Item)
		}
	}

	p := NewPipeline()
	srcA, srcB, joined, grouped := p.Edge(), p.Edge(), p.Edge(), p.Edge()
	cfg := core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB}
	// Propagation machinery on, but no push thresholds: only pull
	// requests (and the final flush) release punctuations.
	j, err := core.New(cfg, joined)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := op.NewGroupBy(j.OutSchema(), 0, 1, op.AggCount, grouped)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Spawn(j, srcA, srcB); err != nil {
		t.Fatal(err)
	}
	if err := p.Spawn(gb, joined); err != nil {
		t.Fatal(err)
	}
	pull, err := p.Pull(j)
	if err != nil {
		t.Fatal(err)
	}
	gb.RequestPunctuations(3, pull.Request)
	sink := p.Sink(grouped)
	// Paced sources keep the join alive long enough for pull requests to
	// be serviced mid-stream.
	p.SourceItems(srcA, a, true)
	p.SourceItems(srcB, b, true)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sink.Tuples()) == 0 {
		t.Fatal("no group rows")
	}
	if gb.EarlyEmitted() == 0 {
		t.Error("pull-mode propagation never released a group before EOS")
	}
}

func TestPullValidation(t *testing.T) {
	p := NewPipeline()
	src, out := p.Edge(), p.Edge()
	sel, _ := op.NewSelect(gen.SchemaA, func(*stream.Tuple) bool { return true }, out)
	if err := p.Spawn(sel, src); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Pull(sel); err == nil {
		t.Error("select is not a puller; Pull should error")
	}
	other, _ := core.New(core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB}, out)
	if _, err := p.Pull(other); err == nil {
		t.Error("unspawned operator should error")
	}
}

// clockAudit records every timestamp an operator is handed, tagged by
// which entry point delivered it, so tests can assert the executor
// keeps one monotone time domain across Process, OnIdle and Finish.
type clockAudit struct {
	mu    sync.Mutex
	calls []struct {
		kind string // "process", "idle", "finish"
		now  stream.Time
	}
	out op.Emitter
}

func (c *clockAudit) record(kind string, now stream.Time) {
	c.mu.Lock()
	c.calls = append(c.calls, struct {
		kind string
		now  stream.Time
	}{kind, now})
	c.mu.Unlock()
}

func (c *clockAudit) Name() string              { return "clock-audit" }
func (c *clockAudit) NumPorts() int             { return 1 }
func (c *clockAudit) OutSchema() *stream.Schema { return gen.SchemaA }

func (c *clockAudit) Process(port int, it stream.Item, now stream.Time) error {
	c.record("process", now)
	return nil
}

func (c *clockAudit) OnIdle(now stream.Time) (bool, error) {
	c.record("idle", now)
	return false, nil
}

func (c *clockAudit) Finish(now stream.Time) error {
	c.record("finish", now)
	return c.out.Emit(stream.EOSItem(now))
}

// TestOnIdleClockNeverRunsBackwards pins the executor's time-domain
// contract: OnIdle pulses use the same clamped clock as item restamping,
// so an operator never observes time moving backwards between a Process
// call and a following idle pulse. A frozen injected clock makes the
// hazard deterministic: restamping pushes item timestamps ahead of the
// wall (the strictly-increasing bump), and an unclamped idle pulse would
// then deliver wall-clock zero — i.e. the past.
func TestOnIdleClockNeverRunsBackwards(t *testing.T) {
	p := NewPipeline()
	p.Clock = func() time.Duration { return 0 } // wall frozen at start
	p.IdlePoll = time.Millisecond
	src, out := p.Edge(), p.Edge()
	audit := &clockAudit{out: out}

	// Feed a burst, stall long enough for idle pulses, then EOS: a paced
	// source releases the EOS 20 ms of real time after start (pacing
	// reads the wall, not Clock). With the clock frozen, every item
	// restamp rides the +1 bump, so item timestamps (1, 2, 3, ...) run
	// ahead of the reported wall time (0).
	p.source(src, append(items(t, 5), stream.EOSItem(stream.Time(20*time.Millisecond))), true, false)
	if err := p.Spawn(audit, src); err != nil {
		t.Fatal(err)
	}
	p.Sink(out)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	audit.mu.Lock()
	defer audit.mu.Unlock()
	var idles int
	var last stream.Time
	var lastKind string
	for i, call := range audit.calls {
		if call.kind == "idle" {
			idles++
		}
		if call.now < last {
			t.Fatalf("call %d: %s at t=%d after %s at t=%d — operator clock ran backwards",
				i, call.kind, call.now, lastKind, last)
		}
		last, lastKind = call.now, call.kind
	}
	if idles == 0 {
		t.Skip("no idle pulse fired during the stall window; nothing to check")
	}
	if audit.calls[len(audit.calls)-1].kind != "finish" {
		t.Fatalf("last call = %q, want finish", audit.calls[len(audit.calls)-1].kind)
	}
}
