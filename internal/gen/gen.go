// Package gen implements the benchmark system of the paper's
// experimental study (§4): synthetic punctuated data streams with
// controlled arrival patterns and rates. Tuples of both input streams
// have Poisson inter-arrival times (the paper uses a mean of 2 ms);
// punctuation inter-arrival is measured in tuples per punctuation, also
// Poisson-distributed.
//
// # Key model
//
// The two streams draw join keys from a shared, evolving population of
// "open" keys, mirroring the paper's online-auction motivation (§2.1):
// a key is opened globally (an item goes up for auction), each stream
// punctuates it independently (the stream promises it is done with that
// key), and a stream only ever emits tuples for keys it has not yet
// punctuated — so the generated punctuations are honest by construction.
// Key openings are driven by the faster-punctuating stream so it always
// keeps a window of WindowKeys open keys; the slower stream's open set
// then grows, which reproduces the paper's asymmetric-rate phenomena
// (Fig. 10: the slower side's punctuations let the opposite state grow;
// most tuples for long-closed keys are droppable on the fly).
package gen

import (
	"fmt"

	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
	"pjoin/internal/vtime"
)

// Arrival is one input event for a two-port operator: which port it
// enters on and the item itself. Schedules are ordered by strictly
// increasing Item.Ts.
type Arrival struct {
	Port int
	Item stream.Item
}

// SideSpec configures one input stream of the synthetic workload.
type SideSpec struct {
	// TupleMean is the Poisson mean inter-arrival time of data tuples
	// (default 2ms, the paper's setting).
	TupleMean stream.Time
	// PunctMean is the punctuation inter-arrival in tuples per
	// punctuation (Poisson; e.g. 40 means on average one punctuation
	// every 40 tuples). 0 disables punctuations for this stream.
	PunctMean float64
	// Batched makes each punctuation event close the stream's whole
	// backlog of due keys with a single range punctuation instead of
	// closing exactly one key with a constant punctuation. A slower
	// punctuation rate then means coarser (but equally covering)
	// punctuations rather than an ever-growing backlog — the regime of
	// the paper's asymmetric-rate experiments (§4.3), where the join
	// state stays bounded and the cost effect is "fewer purges, less
	// overhead".
	Batched bool
}

// Config configures the synthetic two-stream workload.
type Config struct {
	Seed uint64
	// Duration is the virtual time horizon; generation stops at the
	// first arrival past it.
	Duration stream.Time
	// MaxTuples optionally caps the total tuple count (0 = no cap).
	MaxTuples int
	// WindowKeys is the target number of keys the faster-punctuating
	// stream keeps open (default 16). Larger windows mean more
	// many-to-many matching per key.
	WindowKeys int
	A, B       SideSpec
	// AlignedPunctuation forces both streams to punctuate the same keys
	// in the same order at the pace of the slower stream — the "ideal
	// case" of the propagation experiment (Fig. 14). Requires equal
	// PunctMean on both sides.
	AlignedPunctuation bool
}

// Schemas of the synthetic workload: both sides are (k int, payload
// string) with the join attribute at position 0.
var (
	SchemaA = stream.MustSchema("A",
		stream.Field{Name: "k", Kind: value.KindInt},
		stream.Field{Name: "payload", Kind: value.KindString},
	)
	SchemaB = stream.MustSchema("B",
		stream.Field{Name: "k", Kind: value.KindInt},
		stream.Field{Name: "payload", Kind: value.KindString},
	)
)

// KeyAttr is the join attribute position in both synthetic schemas.
const KeyAttr = 0

type sideState struct {
	spec      SideSpec
	schema    *stream.Schema
	punctRNG  *vtime.RNG
	nextTuple stream.Time
	// open keys this stream has not punctuated yet, oldest first
	open []int64
	// tuples remaining until the next punctuation fires
	untilPunct float64
	seq        int
}

// Synthetic generates the two-stream schedule. Arrivals are merged in
// time order with strictly increasing timestamps.
func Synthetic(cfg Config) ([]Arrival, error) {
	if cfg.Duration <= 0 && cfg.MaxTuples <= 0 {
		return nil, fmt.Errorf("gen: need Duration or MaxTuples")
	}
	if cfg.WindowKeys == 0 {
		cfg.WindowKeys = 16
	}
	if cfg.WindowKeys < 1 {
		return nil, fmt.Errorf("gen: WindowKeys must be >= 1")
	}
	for i, s := range []SideSpec{cfg.A, cfg.B} {
		if s.TupleMean <= 0 {
			return nil, fmt.Errorf("gen: side %d: TupleMean must be positive", i)
		}
		if s.PunctMean < 0 {
			return nil, fmt.Errorf("gen: side %d: PunctMean must be >= 0", i)
		}
	}
	if cfg.AlignedPunctuation {
		if cfg.A.PunctMean != cfg.B.PunctMean || cfg.A.PunctMean == 0 {
			return nil, fmt.Errorf("gen: aligned punctuation requires equal non-zero PunctMean")
		}
	}

	rng := vtime.NewRNG(cfg.Seed)
	var nextKey int64
	sides := [2]*sideState{
		{spec: cfg.A, schema: SchemaA},
		{spec: cfg.B, schema: SchemaB},
	}
	// Punctuation gap sequences come from dedicated sub-generators. When
	// both sides punctuate at the same mean rate they share one gap
	// sequence — the paper's benchmark closes a key on both streams in
	// response to the same logical event (an auction expiring), so the
	// two streams' punctuation progressions track each other instead of
	// drifting apart like two independent Poisson counters would.
	if cfg.A.PunctMean == cfg.B.PunctMean {
		shared := cfg.Seed ^ 0x9E3779B97F4A7C15
		sides[0].punctRNG = vtime.NewRNG(shared)
		sides[1].punctRNG = vtime.NewRNG(shared)
	} else {
		sides[0].punctRNG = vtime.NewRNG(cfg.Seed ^ 0xA5A5A5A5A5A5A5A5)
		sides[1].punctRNG = vtime.NewRNG(cfg.Seed ^ 0x5A5A5A5A5A5A5A5A)
	}
	// Open the initial window on both sides.
	for k := 0; k < cfg.WindowKeys; k++ {
		for _, s := range sides {
			s.open = append(s.open, nextKey)
		}
		nextKey++
	}
	for _, s := range sides {
		s.nextTuple = rng.ExpDuration(s.spec.TupleMean)
		if s.spec.PunctMean > 0 {
			s.untilPunct = s.punctRNG.Exp(s.spec.PunctMean)
		}
	}

	openKey := func() {
		for _, s := range sides {
			s.open = append(s.open, nextKey)
		}
		nextKey++
	}

	var (
		out     = make([]Arrival, 0, sized(cfg.expected()))
		stamp   = new(clock).stamp
		tuples  int
		pending [2][]stream.Item // punctuations to emit right after the tuple
	)

	for {
		// Next side to emit a tuple.
		s := 0
		if sides[1].nextTuple < sides[0].nextTuple {
			s = 1
		}
		side := sides[s]
		at := side.nextTuple
		if cfg.Duration > 0 && at > cfg.Duration {
			break
		}
		if cfg.MaxTuples > 0 && tuples >= cfg.MaxTuples {
			break
		}

		// Keep the window populated: a side with no open keys gets new
		// global keys (both sides see openings).
		for len(side.open) == 0 {
			openKey()
		}
		key := side.open[rng.Intn(len(side.open))]
		ts := stamp(at)
		tp := stream.MustTuple(side.schema, ts,
			value.Int(key), value.Str(fmt.Sprintf("%s%d", side.schema.Name(), side.seq)))
		side.seq++
		tuples++
		out = append(out, Arrival{Port: s, Item: stream.TupleItem(tp)})
		side.nextTuple = at + rng.ExpDuration(side.spec.TupleMean)

		// Punctuation bookkeeping: counted in tuples.
		if side.spec.PunctMean > 0 {
			side.untilPunct--
			for side.untilPunct <= 0 {
				side.untilPunct += side.punctRNG.Exp(side.spec.PunctMean)
				if side.spec.Batched {
					// Close the whole backlog beyond the target window
					// with one range punctuation.
					excess := len(side.open) - cfg.WindowKeys
					if excess <= 0 {
						continue
					}
					lo, hi := side.open[0], side.open[excess-1]
					side.open = side.open[excess:]
					pat, err := punct.NewRange(value.Int(lo), value.Int(hi))
					if err != nil {
						return nil, err
					}
					p := punct.MustKeyOnly(side.schema.Width(), KeyAttr, pat)
					pending[s] = append(pending[s], stream.PunctItem(p, 0))
					continue
				}
				k := side.open[0]
				side.open = side.open[1:]
				p := punct.MustKeyOnly(side.schema.Width(), KeyAttr, punct.Const(value.Int(k)))
				pending[s] = append(pending[s], stream.PunctItem(p, 0))
				if cfg.AlignedPunctuation {
					// The other side punctuates the same key immediately
					// after (same order, same granularity).
					o := 1 - s
					other := sides[o]
					for len(other.open) > 0 && other.open[0] <= k {
						ko := other.open[0]
						other.open = other.open[1:]
						po := punct.MustKeyOnly(other.schema.Width(), KeyAttr, punct.Const(value.Int(ko)))
						pending[o] = append(pending[o], stream.PunctItem(po, 0))
					}
				}
				// Keep the faster-closing side's window at full size.
				for len(side.open) < cfg.WindowKeys {
					openKey()
				}
			}
		}
		for s2 := 0; s2 < 2; s2++ {
			for _, pi := range pending[s2] {
				pi.Ts = stamp(ts)
				out = append(out, Arrival{Port: s2, Item: pi})
			}
			pending[s2] = pending[s2][:0]
		}
	}
	return out, nil
}

// expected is a schedule's expected length: the tuples, their total
// capped by MaxTuples, and each side's punctuations at 1/PunctMean, twice
// over when both sides close every key (AlignedPunctuation).
func (cfg Config) expected() float64 {
	rate := [2]float64{1 / float64(cfg.A.TupleMean), 1 / float64(cfg.B.TupleMean)}
	tuples := float64(cfg.Duration) * (rate[0] + rate[1])
	if cfg.MaxTuples > 0 && (cfg.Duration <= 0 || tuples > float64(cfg.MaxTuples)) {
		tuples = float64(cfg.MaxTuples)
	}
	n := tuples
	for i, s := range []SideSpec{cfg.A, cfg.B} {
		if s.PunctMean > 0 {
			n += tuples * rate[i] / (rate[0] + rate[1]) / s.PunctMean
		}
	}
	if cfg.AlignedPunctuation {
		n += tuples / cfg.A.PunctMean
	}
	return n
}

// sized is the capacity a generator gives a schedule of expected length
// n: a margin of several standard deviations, so it is allocated once.
func sized(n float64) int { return int(n*1.03) + 64 }

// clock stamps a schedule's arrivals: t, or one past the last stamp when
// t is not later, so timestamps strictly increase.
type clock stream.Time

func (c *clock) stamp(t stream.Time) stream.Time {
	*c = clock(max(t, stream.Time(*c)+1))
	return stream.Time(*c)
}

// Validate checks a schedule's invariants: strictly increasing
// timestamps and honest punctuations (no tuple follows a punctuation it
// matches on the same port). The tests and the harness run it on every
// generated workload.
func Validate(arrs []Arrival) error {
	var last stream.Time = -1
	closed := [2]punct.Closed{punct.NewClosed(KeyAttr), punct.NewClosed(KeyAttr)}
	for i, a := range arrs {
		if a.Item.Ts <= last {
			return fmt.Errorf("gen: arrival %d: timestamp %d not increasing (prev %d)", i, a.Item.Ts, last)
		}
		last = a.Item.Ts
		if a.Port != 0 && a.Port != 1 {
			return fmt.Errorf("gen: arrival %d: bad port %d", i, a.Port)
		}
		switch a.Item.Kind {
		case stream.KindTuple:
			key := a.Item.Tuple.Values[KeyAttr]
			if closed[a.Port].Has(key) {
				return fmt.Errorf("gen: arrival %d: tuple %s violates an earlier punctuation on port %d",
					i, a.Item.Tuple, a.Port)
			}
		case stream.KindPunct:
			closed[a.Port].Add(a.Item.Punct)
		}
	}
	return nil
}

// Stats summarises a schedule for reporting.
type Stats struct {
	Tuples [2]int
	Puncts [2]int
	Span   stream.Time
}

// Summarize computes schedule statistics.
func Summarize(arrs []Arrival) Stats {
	var st Stats
	for _, a := range arrs {
		switch a.Item.Kind {
		case stream.KindTuple:
			st.Tuples[a.Port]++
		case stream.KindPunct:
			st.Puncts[a.Port]++
		}
		st.Span = a.Item.Ts
	}
	return st
}
