package parallel

import (
	"fmt"
	"slices"
	"sync"

	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// alignPort is shard i's emitter in the direct wiring: align's port i.
type alignPort struct {
	a *align
	i int
}

func (p alignPort) Emit(it stream.Item) error { return p.a.Process(p.i, it, it.Ts) }

// align is the fan-in: port i is shard i's output. It forwards results as
// they come and a propagated punctuation once every shard has propagated
// it, and emits one EOS at Finish, after every port's.
type align struct {
	out   op.Emitter
	outSc *stream.Schema
	n     int
	instr *obs.Instr
	lat   *obs.Lat // the router's

	punctsOut int64
	eos       int
	maxTs     stream.Time
	finished  bool

	// mu guards pending: under Spawn the router notes arrivals on its
	// own goroutine.
	mu      sync.Mutex //pjoin:lockrank leaf
	pending map[string]*pendingPunct
}

// pendingPunct is one output pattern's alignment state. Two input
// punctuations can widen to the same pattern, so a shard may emit it
// again before another shard has emitted it once; the promise holds
// join-wide only once every shard has made it. owed[i] counts the copies
// shard i emitted that are not yet forwarded, and ts[k] is the latest
// emission time of the k-th of them over the shards (when that copy's
// promise became true join-wide): the k-th copy is forwarded once every
// shard has emitted it. arrivals are the arrivals the router noted;
// alignments complete in arrival order, so each pops the front one.
type pendingPunct struct {
	owed     []int
	ts       []stream.Time
	arrivals []arrival
}

// arrival is a broadcast punctuation's arrival time at the router and its
// provenance trace (zero when spans are off).
type arrival struct {
	ts    stream.Time
	trace uint64
}

func (a *align) Name() string                     { return "align" }
func (a *align) NumPorts() int                    { return a.n }
func (a *align) OutSchema() *stream.Schema        { return a.outSc }
func (a *align) OnIdle(stream.Time) (bool, error) { return false, nil }

// Process implements op.Operator: port is the shard the item came from.
func (a *align) Process(port int, it stream.Item, now stream.Time) error {
	if err := op.ValidatePort(a.Name(), port, a.n); err != nil {
		return err
	}
	switch it.Kind {
	case stream.KindTuple:
		return a.out.Emit(it)
	case stream.KindPunct:
		return a.punct(port, it)
	case stream.KindEOS:
		a.eos++
		a.maxTs = max(a.maxTs, it.Ts)
		return nil
	default:
		return fmt.Errorf("parallel: %s: unknown item kind %v", a.Name(), it.Kind)
	}
}

// punct records shard's propagation and forwards the punctuation once
// every shard has propagated it.
func (a *align) punct(shard int, it stream.Item) error {
	done, fwdTs, arr, noted := a.countDown(it.Punct.String(), shard, it.Ts)
	if !done {
		return nil // some shard may still produce matching results
	}
	a.punctsOut++
	out := stream.PunctItem(it.Punct, fwdTs)
	if noted {
		a.lat.RecordPunctDelay(fwdTs, arr.ts)
		if arr.trace != 0 {
			// The join-wide terminal span (Shard = -1, N = shards); the
			// shards' own punct_emit spans count shard alignments.
			out.Span = arr.trace
			a.instr.Span(span.KindPunctEmit, arr.trace, fwdTs, -1, int64(a.n), 0, 0, int64(fwdTs)-int64(arr.ts))
		}
	}
	return a.out.Emit(out)
}

// countDown records shard's propagation of key at ts. The one that
// completes a copy on every shard returns done, the forward time and the
// noted arrival, if any.
func (a *align) countDown(key string, shard int, ts stream.Time) (done bool, fwdTs stream.Time, arr arrival, noted bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	pp := a.entry(key)
	if k := pp.owed[shard]; k < len(pp.ts) {
		pp.ts[k] = max(pp.ts[k], ts)
	} else {
		pp.ts = append(pp.ts, ts)
	}
	pp.owed[shard]++
	if slices.Min(pp.owed) == 0 {
		return false, 0, arrival{}, false
	}
	for i := range pp.owed {
		pp.owed[i]--
	}
	fwdTs = pp.ts[0]
	pp.ts = pp.ts[1:]
	if len(pp.arrivals) > 0 {
		arr, noted = pp.arrivals[0], true
		pp.arrivals = pp.arrivals[1:]
	}
	if len(pp.ts) == 0 && len(pp.arrivals) == 0 {
		delete(a.pending, key) // every shard even, nothing noted left
	}
	return true, fwdTs, arr, noted
}

// note records a broadcast punctuation's arrival under its align key.
func (a *align) note(key string, ts stream.Time, trace uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	pp := a.entry(key)
	pp.arrivals = append(pp.arrivals, arrival{ts: ts, trace: trace})
}

// entry returns key's countdown, creating it; a.mu is held.
func (a *align) entry(key string) *pendingPunct {
	pp := a.pending[key]
	if pp == nil {
		pp = &pendingPunct{owed: make([]int, a.n)}
		a.pending[key] = pp
	}
	return pp
}

// Finish implements op.Operator: one EOS, stamped no earlier than any
// shard's.
func (a *align) Finish(now stream.Time) error {
	if a.finished {
		return fmt.Errorf("parallel: %s: double Finish", a.Name())
	}
	if a.eos != a.n {
		return fmt.Errorf("parallel: %s: %d of %d shards emitted EOS", a.Name(), a.eos, a.n)
	}
	a.finished = true
	ts := max(now, a.maxTs)
	if lv := a.instr.Live(); lv != nil {
		lv.Flush(ts) // final aggregated sample; every shard has finished
	}
	return a.out.Emit(stream.EOSItem(ts))
}
