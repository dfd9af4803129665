package exec

import (
	"context"
	"testing"
	"time"

	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// The tests in this file pin the driver's event-time alignment (DESIGN.md
// §12, "Alignment"): an EventTimeAligned operator's source-fed port is not
// read while it is ahead of another port that has nothing queued, and each
// release rule lets the leader go on — the promise of a paced source, the
// lagging port's EOS and a lagging port's silence for IdlePoll.

// arrival is one tuple an arrivalLog was handed: its port, the Ts its
// source emitted it with and the stamp it arrived with.
type arrival struct {
	port    int
	ts, now stream.Time
}

// arrivalLog is a two-port operator recording every tuple in the order it
// was handed them. full, when set, is closed once port 0 has delivered
// want tuples.
type arrivalLog struct {
	got  []arrival
	want int
	full chan struct{}
}

func (l *arrivalLog) Name() string              { return "arrival-log" }
func (l *arrivalLog) NumPorts() int             { return 2 }
func (l *arrivalLog) OutSchema() *stream.Schema { return gen.SchemaA }
func (l *arrivalLog) Process(port int, it stream.Item, now stream.Time) error {
	if it.Kind != stream.KindTuple {
		return nil
	}
	l.got = append(l.got, arrival{port, it.Tuple.Ts, now})
	if port == 0 && l.full != nil {
		if l.want--; l.want == 0 {
			close(l.full)
		}
	}
	return nil
}
func (l *arrivalLog) OnIdle(stream.Time) (bool, error) { return false, nil }
func (l *arrivalLog) Finish(stream.Time) error         { return nil }

// alignedLog is an arrivalLog that opts into alignment.
type alignedLog struct{ arrivalLog }

func (*alignedLog) AlignInputs() {}

// stampedItems returns one tuple per timestamp, in the given order.
func stampedItems(ts ...stream.Time) []stream.Item {
	out := make([]stream.Item, len(ts))
	for i, t := range ts {
		out[i] = stream.TupleItem(stream.MustTuple(gen.SchemaA, t, value.Int(int64(i)), value.Str("x")))
	}
	return out
}

// spread returns n timestamps from first, step apart.
func spread(n int, first, step stream.Time) []stream.Time {
	ts := make([]stream.Time, n)
	for i := range ts {
		ts[i] = first + stream.Time(i)*step
	}
	return ts
}

// runWithin runs p and fails the test if it has not finished in 10 s.
func runWithin(t *testing.T, p *Pipeline) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- p.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		p.cancel(nil)
		<-done
		t.Fatal("the run did not finish: a port is held for good")
	}
}

// TestAlignOptIn: an unpaced leader whose second half is stamped after a
// paced partner's one item. An operator that does not opt in is served
// round-robin, so the whole leader arrives before the partner's item is
// due; an aligned one takes the leader's second half only after that item.
func TestAlignOptIn(t *testing.T) {
	const due = stream.Time(50 * time.Millisecond)
	lead := spread(200, 1, due/100) // half before the partner's item, half after
	for _, aligned := range []bool{false, true} {
		p := NewPipeline()
		p.IdlePoll = 0 // no silence release: the partner's promise is all that moves it
		a, b := p.Edge(), p.Edge()
		p.SourceItems(a, stampedItems(lead...), false)
		p.SourceItems(b, stampedItems(due), true)
		l := &alignedLog{}
		var o op.Operator = &l.arrivalLog
		if aligned {
			o = l
		}
		if err := p.Spawn(o, a, b); err != nil {
			t.Fatal(err)
		}
		runWithin(t, p)
		if len(l.got) != len(lead)+1 {
			t.Fatalf("aligned %v: %d tuples, want %d", aligned, len(l.got), len(lead)+1)
		}
		for i, g := range l.got {
			if g.port != 1 {
				continue
			}
			before := i
			if !aligned && before != len(lead) {
				t.Errorf("not aligned: the partner's item came after %d of %d leader tuples, want all", before, len(lead))
			}
			if aligned && before != len(lead)/2+1 {
				t.Errorf("aligned: the partner's item came after %d leader tuples, want the %d stamped up to it", before, len(lead)/2+1)
			}
		}
	}
}

// TestAlignReleasesAtEOS: the lagging port ends after three tuples while
// the leader has hundreds stamped later. Its EOS stops it counting, so the
// leader runs to its end with no tick to release it.
func TestAlignReleasesAtEOS(t *testing.T) {
	for _, batch := range []int{1, 8} {
		p := NewPipeline()
		p.IdlePoll = 0
		p.BatchSize = batch
		a, b := p.Edge(), p.Edge()
		p.SourceItems(a, stampedItems(spread(500, 1, 1)...), false)
		p.SourceItems(b, stampedItems(1, 2, 3), false)
		l := &alignedLog{}
		if err := p.Spawn(l, a, b); err != nil {
			t.Fatal(err)
		}
		runWithin(t, p)
		if len(l.got) != 503 {
			t.Errorf("batch %d: %d tuples, want 503", batch, len(l.got))
		}
	}
}

// TestAlignReleasesSilentPort: the lagging port's producer delivers three
// tuples and then waits behind a gate, promising nothing more. The leader
// is held once it is past them, and resumes at the first tick that finds
// the lagging port silent for IdlePoll: at least one IdlePoll and at most
// two after the lagging port's last delivery (the check allows the
// scheduler 10 IdlePoll on top). The gate opens once the leader is through.
func TestAlignReleasesSilentPort(t *testing.T) {
	const poll = 20 * time.Millisecond
	const n = 300
	p := NewPipeline()
	p.IdlePoll = poll
	a, b := p.Edge(), p.Edge()
	p.SourceItems(a, stampedItems(spread(n, 1, 1)...), false)
	gate := make(chan struct{})
	b.source = true // a source that stalls: what Source marks, without its pacing
	p.launched = append(p.launched, func() {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer b.close()
			for _, it := range stampedItems(1, 2, 3) {
				if b.Emit(it) != nil {
					return
				}
				b.promise(it.Ts)
			}
			select {
			case <-gate:
			case <-p.ctx.Done():
				return
			}
			_ = b.Emit(stream.EOSItem(4))
		}()
	})
	l := &alignedLog{arrivalLog{want: n, full: make(chan struct{})}}
	if err := p.Spawn(l, a, b); err != nil {
		t.Fatal(err)
	}
	go func() {
		select {
		case <-l.full:
		case <-time.After(2 * time.Second):
		}
		close(gate)
	}()
	runWithin(t, p)
	var lagLast, leadLast stream.Time
	for _, g := range l.got {
		if g.port == 1 {
			lagLast = g.now
		} else {
			leadLast = g.now
		}
	}
	gap := time.Duration(leadLast - lagLast)
	if gap < poll-time.Millisecond {
		t.Errorf("the leader ran to its end %v after the silent port's last delivery: it was never held (IdlePoll %v)", gap, poll)
	}
	if gap > (2+10)*poll {
		t.Errorf("the leader resumed %v after the silent port's last delivery, want within 2 × IdlePoll = %v", gap, 2*poll)
	}
}

// TestAlignFollowsPromise: a dense paced port beside a sparse one, the
// silence release off. A paced source promises its next item's Ts before
// waiting for it, so the dense port is held only up to that promise; held
// until the sparse port's next item, a dense item would wait up to a
// sparse gap. The wait is read from the driver's hold, not from how late
// an item arrived: a dense item was held for a sparse one when the driver
// delivered that sparse item while the dense item sat in its edge, and the
// hold lasted from the dense item's emission until the sparse item was
// due. A source that wakes late on a loaded host delays its item before
// the driver has it, and a driver that is not scheduled serves neither
// port; neither is a hold.
func TestAlignFollowsPromise(t *testing.T) {
	const gap = 100 * time.Millisecond
	p := NewPipeline()
	p.IdlePoll = 0
	a, b := p.Edge(), p.Edge()
	dense := stampedItems(spread(150, 1, stream.Time(2*time.Millisecond))...)
	emitted := make([]stream.Time, len(dense)) // when each dense item entered its edge
	// A paced source, as Source runs it, that notes each emission.
	a.source = true
	p.launched = append(p.launched, func() {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer a.close()
			for i, it := range dense {
				a.promise(it.Ts)
				time.Sleep(time.Until(p.start.Add(time.Duration(it.Ts))))
				if a.Emit(it) != nil {
					return
				}
				emitted[i] = stream.Time(p.elapsed())
			}
			_ = a.Emit(stream.EOSItem(dense[len(dense)-1].Ts + 1))
		}()
	})
	p.SourceItems(b, stampedItems(spread(3, 1, stream.Time(gap))...), true)
	l := &alignedLog{}
	if err := p.Spawn(l, a, b); err != nil {
		t.Fatal(err)
	}
	runWithin(t, p)
	var held, late time.Duration
	var sparse []arrival // sparse items delivered so far
	i := 0               // the next dense item
	for _, g := range l.got {
		if g.port == 1 {
			sparse = append(sparse, g)
			continue
		}
		late = max(late, time.Duration(g.now-g.ts))
		for _, s := range sparse {
			if s.now > emitted[i] { // delivered while dense item i was queued
				held = max(held, time.Duration(s.ts-emitted[i]))
			}
		}
		i++
	}
	if held > gap*2/5 {
		t.Errorf("a dense item was held %v for the sparse port, want well under the sparse gap %v (latest arrival %v after due)", held, gap, late)
	}
}
