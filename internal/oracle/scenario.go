// Package oracle is the randomized differential correctness harness:
// it generates seeded adversarial workloads (skewed keys, mixed
// constant/range/enum/wildcard punctuation patterns, bursty
// interleavings, early end-of-stream) and drives every operator
// configuration — PJoin and XJoin, drained and budgeted disk passes,
// cached and fault-injected spill stores, batched and scrambled delivery —
// over the same schedule, comparing each against the brute-force
// symmetric hash join (internal/shj, the exact equi-join oracle) and
// the PJoin variants against each other.
//
// The paper's correctness claims are checked as machine-verifiable
// invariants on every run:
//
//   - exact results: each variant's result-tuple multiset (values and
//     timestamps) is bit-identical to the shj oracle's;
//   - exactly-once emission: multiset equality catches both lost and
//     duplicated results, the classic failure modes of disk-pass
//     duplicate avoidance;
//   - safe purging and propagation: every PJoin variant propagates the
//     same punctuation multiset as the reference variant, so a
//     configuration that purges too eagerly (losing results) or
//     propagates too early (emitting an unsafe promise) diverges;
//   - Theorem 1 on the ordered output: no result follows a propagated
//     punctuation that matches it, and EOS comes once, last — a check
//     that needs no reference, so a propagation bug every variant
//     shares fails it too;
//   - licensed punctuations: every propagated punctuation is the output
//     form of an input punctuation on its port, never an invented or
//     misplaced pattern — again with no reference;
//   - truthful observability: work counters and latency histograms
//     reconcile against the driver's own accounting (see checkObs).
//
// Any divergence is shrunk to a minimal replayable spec (see shrink.go)
// that pins the bug as a regression seed.
package oracle

import (
	"fmt"

	"pjoin/internal/gen"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
	"pjoin/internal/vtime"
)

// Scenario is one fully decoded workload plus the operator thresholds
// shared by every variant run over it. Everything is derived
// deterministically from Seed (or from raw fuzz bytes — see
// FromBytes), so a scenario is replayable from its seed alone.
type Scenario struct {
	Seed uint64

	// Arrivals is the merged two-port schedule, strictly increasing in
	// Item.Ts, including the per-port EOS items at their scheduled
	// positions (early EOS on one port while the other keeps flowing is
	// a generated case). The shrinker may remove any non-EOS item.
	Arrivals []gen.Arrival

	// Shared operator thresholds (identical across variants so outputs
	// are comparable).
	NumBuckets     int
	Purge          int
	PropagateCount int
	MemoryBytes    int64
	DiskJoinIdle   stream.Time
	EagerIndex     bool

	// IdleEvery is the driver's OnIdle cadence in arrivals (0 = never).
	IdleEvery int

	// FaultAt is the 1-based spill operation index at which faulted
	// variants inject an I/O error.
	FaultAt int64
}

// entropy is the scenario decoder's randomness source: it first
// consumes raw bytes (the fuzz engine's mutations steer generation
// directly), then falls back to a PRNG seeded from the same data so
// short inputs still decode to full scenarios. Seeded mode is the
// byte-free special case, making `-oracle` soak runs and `go test
// -fuzz` share one decoder.
type entropy struct {
	data []byte
	rng  *vtime.RNG
}

func newEntropy(seed uint64, data []byte) *entropy {
	for _, b := range data { // fold the bytes into the PRNG fallback seed
		seed = seed*0x100000001b3 ^ uint64(b)
	}
	return &entropy{data: data, rng: vtime.NewRNG(seed ^ 0x9E3779B97F4A7C15)}
}

func (e *entropy) byte() uint64 {
	if len(e.data) > 0 {
		b := e.data[0]
		e.data = e.data[1:]
		return uint64(b)
	}
	return e.rng.Uint64() & 0xFF
}

// intn returns a draw in [0, n).
func (e *entropy) intn(n int) int {
	if n <= 1 {
		return 0
	}
	// Two bytes of entropy bound the draw; n is always small here.
	return int((e.byte()<<8 | e.byte()) % uint64(n))
}

func (e *entropy) bool(percent int) bool { return e.intn(100) < percent }

// FromSeed decodes the scenario identified by seed.
func FromSeed(seed uint64) *Scenario { return decode(seed, nil) }

// FromBytes decodes a scenario from raw fuzz input. The same decoder
// as FromSeed, with the bytes consumed as the leading entropy.
func FromBytes(data []byte) *Scenario { return decode(1, data) }

// decode derives every scenario parameter and the full schedule from
// the entropy stream.
func decode(seed uint64, data []byte) *Scenario {
	e := newEntropy(seed, data)
	sc := &Scenario{
		Seed:           seed,
		NumBuckets:     []int{4, 8, 16, 64}[e.intn(4)],
		Purge:          []int{1, 1, 2, 5, 16}[e.intn(5)],
		PropagateCount: 1,
		IdleEvery:      []int{0, 16, 48, 128}[e.intn(4)],
		EagerIndex:     e.bool(30),
		FaultAt:        int64(1 + e.intn(48)),
	}
	// Most scenarios force relocation so the disk join, spill cache and
	// fault injection paths actually run.
	switch e.intn(4) {
	case 0:
		sc.MemoryBytes = 0 // memory-only: disk machinery must stay inert
	case 1:
		sc.MemoryBytes = 1 << 10
	case 2:
		sc.MemoryBytes = 2 << 10
	default:
		sc.MemoryBytes = 8 << 10
	}
	if sc.MemoryBytes > 0 {
		sc.DiskJoinIdle = 1 // any idle pulse activates the reactive pass
	}
	g := &generator{e: e, sc: sc}
	g.run()
	return sc
}

// generator holds the workload-construction state: the global key
// population, each side's open (not yet punctuated) keys, and the
// bookkeeping that keeps generated punctuation sets inside the paper's
// nested-or-disjoint assumption (§2.2) while still mixing constant,
// range, enumeration and wildcard patterns adversarially.
type generator struct {
	e  *entropy
	sc *Scenario

	nextKey int64
	lastTs  stream.Time
	seq     [2]int

	// Per side: open keys (emittable), the prefix-range frontier (all
	// keys <= frontier are closed by a range punctuation), spans of
	// keys closed by enum punctuations (a later range must not cut
	// through one), and whether a wildcard punctuation closed the side.
	open     [2][]int64
	frontier [2]int64
	spans    [2][][2]int64
	closed   [2]bool // wildcard-punctuated: no tuples may follow
	eosSent  [2]bool
}

// stamp returns the next strictly increasing timestamp.
func (g *generator) stamp() stream.Time {
	g.lastTs += stream.Time(1 + g.e.intn(2000))
	return g.lastTs
}

func (g *generator) openKey() {
	for s := 0; s < 2; s++ {
		if !g.closed[s] {
			g.open[s] = append(g.open[s], g.nextKey)
		}
	}
	g.nextKey++
}

// pickKey draws an open key for side s with a skew toward the oldest
// keys (Zipf-ish: repeated halving), reproducing hot-key pile-ups.
func (g *generator) pickKey(s int) int64 {
	n := len(g.open[s])
	idx := g.e.intn(n)
	for hops := g.e.intn(3); hops > 0 && idx > 0; hops-- {
		idx /= 2
	}
	return g.open[s][idx]
}

func (g *generator) schema(s int) *stream.Schema {
	if s == 0 {
		return gen.SchemaA
	}
	return gen.SchemaB
}

func (g *generator) emit(port int, it stream.Item) {
	g.sc.Arrivals = append(g.sc.Arrivals, gen.Arrival{Port: port, Item: it})
}

func (g *generator) emitTuple(s int) {
	for len(g.open[s]) == 0 {
		g.openKey()
	}
	key := g.pickKey(s)
	sch := g.schema(s)
	tp := stream.MustTuple(sch, g.stamp(),
		value.Int(key), value.Str(fmt.Sprintf("%s%d", sch.Name(), g.seq[s])))
	g.seq[s]++
	g.emit(s, stream.TupleItem(tp))
}

// closeKeyAt removes key k from side s's open set.
func (g *generator) closeKeyAt(s int, k int64) {
	for i, o := range g.open[s] {
		if o == k {
			g.open[s] = append(g.open[s][:i], g.open[s][i+1:]...)
			return
		}
	}
}

// emitPunct generates one punctuation on side s, choosing the pattern
// shape adversarially while honouring honesty (the side never emits a
// tuple matching an earlier own-side punctuation) and §2.2's
// nested-or-disjoint assumption on the join attribute:
//
//   - constants and enums close open keys individually (pairwise
//     disjoint with everything else still open);
//   - ranges are prefixes [0, hi] — any two prefixes nest, a prefix
//     contains every earlier constant/enum below it and is disjoint
//     from everything above; hi is bumped past any enum span it would
//     otherwise cut through;
//   - wildcard closes the whole side (contains everything; the side
//     then stops emitting tuples);
//   - off-attribute punctuations constrain only the payload with a
//     value no tuple ever carries — they exercise non-exhaustive set
//     entries (no purge power, propagate on count zero).
func (g *generator) emitPunct(s int) {
	width := g.schema(s).Width()
	switch pick := g.e.intn(100); {
	case g.closed[s] || pick < 4: // wildcard: close the whole side
		if !g.closed[s] {
			g.closed[s] = true
			g.open[s] = nil
			g.emit(s, stream.PunctItem(punct.MustKeyOnly(width, gen.KeyAttr, punct.Star()), g.stamp()))
		}
	case pick < 10: // off-attribute: payload-only promise, never matched
		p := punct.MustKeyOnly(width, 1, punct.Const(value.Str(fmt.Sprintf("#nohit%d", g.e.intn(8)))))
		g.emit(s, stream.PunctItem(p, g.stamp()))
	case pick < 28 && g.frontier[s] < g.nextKey-1: // prefix range [0, hi]
		hi := g.frontier[s] + 1 + int64(g.e.intn(int(g.nextKey-1-g.frontier[s])))
		// Never cut through an enum-closed span: partial overlap with a
		// multi-member enum would violate nested-or-disjoint.
		for changed := true; changed; {
			changed = false
			for _, sp := range g.spans[s] {
				if sp[0] <= hi && hi < sp[1] {
					hi = sp[1]
					changed = true
				}
			}
		}
		pat := punct.MustRange(value.Int(0), value.Int(hi))
		g.frontier[s] = hi
		kept := g.open[s][:0]
		for _, k := range g.open[s] {
			if k > hi {
				kept = append(kept, k)
			}
		}
		g.open[s] = kept
		g.emit(s, stream.PunctItem(punct.MustKeyOnly(width, gen.KeyAttr, pat), g.stamp()))
	case pick < 45 && len(g.open[s]) >= 2: // enum over 2-4 open keys
		n := 2 + g.e.intn(3)
		if n > len(g.open[s]) {
			n = len(g.open[s])
		}
		members := make([]value.Value, 0, n)
		lo, hi := int64(1<<62), int64(-1)
		for i := 0; i < n; i++ {
			k := g.pickKey(s)
			g.closeKeyAt(s, k)
			members = append(members, value.Int(k))
			if k < lo {
				lo = k
			}
			if k > hi {
				hi = k
			}
		}
		g.spans[s] = append(g.spans[s], [2]int64{lo, hi})
		pat, err := punct.NewEnum(members...)
		if err != nil {
			panic(err) // n >= 1 distinct members; cannot happen
		}
		g.emit(s, stream.PunctItem(punct.MustKeyOnly(width, gen.KeyAttr, pat), g.stamp()))
	default: // constant: close one key (oldest-biased)
		if len(g.open[s]) == 0 {
			g.openKey()
		}
		k := g.open[s][0]
		if g.e.bool(40) {
			k = g.pickKey(s)
		}
		g.closeKeyAt(s, k)
		g.spans[s] = append(g.spans[s], [2]int64{k, k})
		g.emit(s, stream.PunctItem(punct.MustKeyOnly(width, gen.KeyAttr, punct.Const(value.Int(k))), g.stamp()))
	}
}

// run produces the schedule: a bursty interleaving of tuples and
// punctuations with per-side punctuation rates, early-EOS cases and
// trailing EOS for whichever port is still open at the end.
func (g *generator) run() {
	e := g.e
	budget := 60 + e.intn(340)
	windowKeys := 3 + e.intn(20)
	for i := 0; i < windowKeys; i++ {
		g.openKey()
	}
	// Per-side punctuation probability (percent per tuple); one side may
	// punctuate never or rarely (the asymmetric-rate regime).
	punctPct := [2]int{[]int{0, 4, 10, 25}[e.intn(4)], []int{0, 4, 10, 25}[e.intn(4)]}
	// Early EOS: a port may stop partway while the other keeps flowing.
	stopAt := [2]int{budget, budget}
	if e.bool(25) {
		stopAt[e.intn(2)] = budget / (2 + e.intn(3))
	}
	burstSide, burstLeft := 0, 0
	for i := 0; i < budget; i++ {
		s := e.intn(2)
		if burstLeft > 0 {
			s, burstLeft = burstSide, burstLeft-1
		} else if e.bool(15) {
			burstSide, burstLeft = s, 2+e.intn(12)
		}
		if i >= stopAt[s] || g.closed[s] {
			s = 1 - s
		}
		if i >= stopAt[s] || g.closed[s] {
			break // both sides done with tuples
		}
		// Send the port's EOS the moment its tuple budget is exhausted,
		// so post-EOS drain on the other port is exercised.
		g.emitTuple(s)
		if e.intn(100) < punctPct[s] && !g.closed[s] {
			g.emitPunct(s)
		}
		if e.intn(100) < punctPct[1-s]/2 && !g.closed[1-s] && i < stopAt[1-s] {
			g.emitPunct(1 - s)
		}
		for p := 0; p < 2; p++ {
			if !g.eosSent[p] && (i+1 >= stopAt[p] || g.closed[p]) && e.bool(60) {
				g.eosSent[p] = true
				g.emit(p, stream.EOSItem(g.stamp()))
			}
		}
	}
	for p := 0; p < 2; p++ {
		if !g.eosSent[p] {
			g.eosSent[p] = true
			g.emit(p, stream.EOSItem(g.stamp()))
		}
	}
}

// Validate checks the generated schedule's own invariants: strictly
// increasing timestamps, per-port honesty (no tuple after a matching
// own-port punctuation), the nested-or-disjoint assumption on the join
// attribute, and no items after a port's EOS. The harness runs it on
// every decoded scenario — a violation is a generator bug, reported
// loudly rather than laundered into an operator divergence.
func (sc *Scenario) Validate() error {
	var last stream.Time = -1
	sets := [2]*punct.Set{
		punct.NewKeyedSet(gen.KeyAttr, true),
		punct.NewKeyedSet(gen.KeyAttr, true),
	}
	var eos [2]bool
	for i, a := range sc.Arrivals {
		if a.Port != 0 && a.Port != 1 {
			return fmt.Errorf("oracle: arrival %d: bad port %d", i, a.Port)
		}
		if a.Item.Ts <= last {
			return fmt.Errorf("oracle: arrival %d: timestamp %d not increasing (prev %d)", i, a.Item.Ts, last)
		}
		last = a.Item.Ts
		if eos[a.Port] {
			return fmt.Errorf("oracle: arrival %d: item after EOS on port %d", i, a.Port)
		}
		switch a.Item.Kind {
		case stream.KindTuple:
			if sets[a.Port].SetMatchAttr(gen.KeyAttr, a.Item.Tuple.Values[gen.KeyAttr]) {
				return fmt.Errorf("oracle: arrival %d: tuple %s violates an earlier punctuation on port %d",
					i, a.Item.Tuple, a.Port)
			}
		case stream.KindPunct:
			if _, err := sets[a.Port].Add(a.Item.Punct); err != nil {
				return fmt.Errorf("oracle: arrival %d: %w", i, err)
			}
		case stream.KindEOS:
			eos[a.Port] = true
		}
	}
	return nil
}

// scrambled returns the scenario with every tuple delivered as a copy
// whose own Ts is its reverse rank among the arrivals — far below and
// running against the schedule — while Item.Ts keeps the schedule. A
// join must take every arrival time from Item.Ts, so its results,
// timestamps included, are the unscrambled scenario's.
func (sc *Scenario) scrambled() *Scenario {
	out := *sc
	out.Arrivals = make([]gen.Arrival, len(sc.Arrivals))
	for i, a := range sc.Arrivals {
		if a.Item.Kind == stream.KindTuple {
			t := *a.Item.Tuple
			t.Ts = stream.Time(len(sc.Arrivals) - i)
			a.Item.Tuple = &t
		}
		out.Arrivals[i] = a
	}
	return &out
}

// Stats summarises the schedule for reports.
func (sc *Scenario) Stats() (tuples, puncts [2]int) {
	for _, a := range sc.Arrivals {
		switch a.Item.Kind {
		case stream.KindTuple:
			tuples[a.Port]++
		case stream.KindPunct:
			puncts[a.Port]++
		}
	}
	return
}
