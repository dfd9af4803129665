package parallel

import (
	"fmt"
	"slices"

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
	out op.Emitter
	n   int

	eos     int
	maxTs   stream.Time
	pending map[string]*pendingPunct
}

// pendingPunct is one output pattern's alignment state. Two input
// punctuations can widen to the same pattern, so a shard may emit it
// again before another shard has emitted it once; the promise holds
// join-wide only once every shard has made it. owed[i] counts the copies
// shard i emitted that are not yet forwarded, and ts[k] is the latest
// emission time of the k-th of them over the shards (when that copy's
// promise became true join-wide): the k-th copy is forwarded once every
// shard has emitted it.
type pendingPunct struct {
	owed []int
	ts   []stream.Time
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
	pp := a.pending[key]
	if pp == nil {
		pp = &pendingPunct{owed: make([]int, a.n)}
		a.pending[key] = pp
	}
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
	if len(pp.ts) == 0 {
		delete(a.pending, key) // every shard even
	}
	return a.out.Emit(stream.PunctItem(it.Punct, fwdTs))
}

// Finish emits the one EOS, stamped no earlier than any shard's.
func (a *align) Finish(now stream.Time) error {
	if a.eos != a.n {
		return fmt.Errorf("parallel: align: %d of %d shards emitted EOS", a.eos, a.n)
	}
	return a.out.Emit(stream.EOSItem(max(now, a.maxTs)))
}
