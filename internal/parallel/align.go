package parallel

import (
	"fmt"
	"slices"

	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// alignPort is shard i's emitter: align's input i.
type alignPort struct {
	a *align
	i int
}

func (p alignPort) Emit(it stream.Item) error { return p.a.take(p.i, it) }

// align is the fan-in: input i is shard i's output. It forwards results
// as they come and a propagated punctuation once every shard has
// propagated it, and emits one EOS at Finish, after every shard's.
type align struct {
	out   op.Emitter
	n     int
	instr *obs.Instr
	lat   *obs.Lat // the router's

	punctsOut int64
	eos       int
	maxTs     stream.Time
	pending   map[string]*pendingPunct
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

// take handles an item shard emitted.
func (a *align) take(shard int, it stream.Item) error {
	switch it.Kind {
	case stream.KindTuple:
		return a.out.Emit(it)
	case stream.KindPunct:
		return a.punct(shard, it)
	case stream.KindEOS:
		a.eos++
		a.maxTs = max(a.maxTs, it.Ts)
		return nil
	default:
		return fmt.Errorf("parallel: align: unknown item kind %v", it.Kind)
	}
}

// punct records shard's propagation of a pattern. The emission that
// completes a copy on every shard forwards it, stamped with the latest of
// those copies' emission times.
func (a *align) punct(shard int, it stream.Item) error {
	key := it.Punct.String()
	pp := a.entry(key)
	if k := pp.owed[shard]; k < len(pp.ts) {
		pp.ts[k] = max(pp.ts[k], it.Ts)
	} else {
		pp.ts = append(pp.ts, it.Ts)
	}
	pp.owed[shard]++
	if slices.Min(pp.owed) == 0 {
		return nil // some shard may still produce matching results
	}
	for i := range pp.owed {
		pp.owed[i]--
	}
	fwdTs := pp.ts[0]
	pp.ts = pp.ts[1:]
	a.punctsOut++
	out := stream.PunctItem(it.Punct, fwdTs)
	if len(pp.arrivals) > 0 {
		arr := pp.arrivals[0]
		pp.arrivals = pp.arrivals[1:]
		a.lat.RecordPunctDelay(fwdTs, arr.ts)
		if arr.trace != 0 {
			// The join-wide terminal span (Shard = -1, N = shards); the
			// shards' own punct_emit spans count shard alignments.
			out.Span = arr.trace
			a.instr.Span(span.KindPunctEmit, arr.trace, fwdTs, -1, int64(a.n), 0, 0, int64(fwdTs)-int64(arr.ts))
		}
	}
	if len(pp.ts) == 0 && len(pp.arrivals) == 0 {
		delete(a.pending, key) // every shard even, nothing noted left
	}
	return a.out.Emit(out)
}

// note records a broadcast punctuation's arrival under its align key.
func (a *align) note(key string, ts stream.Time, trace uint64) {
	pp := a.entry(key)
	pp.arrivals = append(pp.arrivals, arrival{ts: ts, trace: trace})
}

// entry returns key's countdown, creating it.
func (a *align) entry(key string) *pendingPunct {
	pp := a.pending[key]
	if pp == nil {
		pp = &pendingPunct{owed: make([]int, a.n)}
		a.pending[key] = pp
	}
	return pp
}

// Finish emits the one EOS, stamped no earlier than any shard's.
func (a *align) Finish(now stream.Time) error {
	if a.eos != a.n {
		return fmt.Errorf("parallel: align: %d of %d shards emitted EOS", a.eos, a.n)
	}
	ts := max(now, a.maxTs)
	if lv := a.instr.Live(); lv != nil {
		lv.Flush(ts) // final aggregated sample; every shard has finished
	}
	return a.out.Emit(stream.EOSItem(ts))
}
