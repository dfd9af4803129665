package core_test

import (
	"fmt"
	"testing"
	"time"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// soakTuples is how many tuples each run of TestLifecycleSoak feeds;
// `make soak` builds with the pjoin_soak tag, which raises it to 10^7.
var soakTuples = 16_000

// soakCase is one workload of the lifecycle soak: gen's synthetic
// streams, keys closed oldest first, soakWindow keys open per side.
// aligned closes each key on both sides together (gen's
// AlignedPunctuation): two sides that close keys at the same mean rate on
// their own drift apart like a random walk, and the lagging side's open
// keys with them. With runs set, each side's per-key constants are held
// and sent as one range over every runs consecutive keys (gen's Batched
// closes a backlog the other side's constants open, so it cannot be both
// sides). With narrow set, each key punctuation follows one on that key
// and a payload no tuple carries: it is not exhaustive on the key, so it
// never purges or drops a tuple, and it must still retire once released.
type soakCase struct {
	name    string
	a, b    gen.SideSpec
	aligned bool
	runs    int
	narrow  bool
}

const soakWindow = 32 // gen.Config.WindowKeys

func soakSide(punctMean float64, batched bool) gen.SideSpec {
	return gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: punctMean, Batched: batched}
}

// soakCases: per-key constants, ranges, one side of each, and per-key
// constants each with a narrow punctuation. In mixed,
// A punctuates every 2 of its tuples and closes about one key in seven
// (e^-2) without having sent a tuple for it, while B, closing its backlog
// with one of gen's Batched ranges every 8 of its tuples, keeps sending
// tuples A's punctuation already rules out.
func soakCases() []soakCase {
	return []soakCase{
		{name: "constant", a: soakSide(2, false), b: soakSide(2, false), aligned: true},
		{name: "range", a: soakSide(2, false), b: soakSide(2, false), aligned: true, runs: 8},
		{name: "mixed", a: soakSide(2, false), b: soakSide(8, true)},
		{name: "narrow", a: soakSide(2, false), b: soakSide(2, false), aligned: true, narrow: true},
	}
}

// TestLifecycleSoak runs each workload with and without spilling, the
// join's output feeding a group-by on the join attribute as in the
// paper's Fig. 1 plan, and samples the
// punctuation sets, the state and the group-by's closed intervals as it
// goes. Each must stay under a bound that follows from the workload —
// punctuations: two per open key and side; tuples: twice the
// open keys times the tuples both sides send per punctuation; closed
// intervals: one, plus one per gap below the highest key closed, and a
// gap needs a key A has not closed downstream yet: open, or its
// punctuation held in the join — and none may grow over the second half
// of the run.
func TestLifecycleSoak(t *testing.T) {
	for _, sc := range soakCases() {
		for _, spill := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/spill=%v", sc.name, spill), func(t *testing.T) {
				start := time.Now()
				sets, state, closed := soakRun(t, sc, spill)
				setBound := 2 * soakWindow * 2
				stateBound := int(2 * soakWindow * (sc.a.PunctMean + sc.b.PunctMean))
				closedBound := 1 + soakWindow + setBound/2
				checkSoak(t, "punctuations held", sets, setBound)
				checkSoak(t, "state tuples", state, stateBound)
				checkSoak(t, "group-by closed intervals", closed, closedBound)
				t.Logf("%d tuples in %v: punctuations held peak %d (bound %d), state tuples peak %d (bound %d), group-by closed intervals peak %d (bound %d)",
					soakTuples, time.Since(start).Round(time.Millisecond), peak(sets), setBound, peak(state), stateBound, peak(closed), closedBound)
			})
		}
	}
}

// soakRun feeds soakTuples tuples of sc through a join into a group-by
// counting per join key, and returns the punctuations held, the state
// tuples and the group-by's closed intervals, sampled 200 times.
func soakRun(t *testing.T, sc soakCase, spill bool) (sets, state, closed []int) {
	t.Helper()
	cfg := core.Config{
		SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
		AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
	}
	cfg.Thresholds.Purge = 1
	cfg.Thresholds.PropagateCount = 1
	if spill {
		cfg.Thresholds.MemoryBytes = 1 << 10
		cfg.Thresholds.DiskJoinIdle = stream.Millisecond
		cfg.DiskChunkBytes = 4 << 10
	}
	var g *op.GroupBy
	j, err := core.New(cfg, op.EmitterFunc(func(it stream.Item) error { return g.Process(0, it, it.Ts) }))
	if err != nil {
		t.Fatal(err)
	}
	g, err = op.NewGroupBy(j.OutSchema(), gen.KeyAttr, 0, op.AggCount, op.EmitterFunc(func(stream.Item) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	every := max(soakTuples/200, 1)
	fed := 0
	var last stream.Time
	var held [2][]int64 // constants a runs case has not sent yet
	feed := func(port int, it stream.Item) {
		if fed%64 == 63 && it.Ts > last+1 {
			// Idle pulses, so the reactive disk join runs.
			if _, err := j.OnIdle(it.Ts - 1); err != nil {
				t.Fatalf("OnIdle: %v", err)
			}
		}
		if err := j.Process(port, it, it.Ts); err != nil {
			t.Fatalf("arrival %d: %v", fed, err)
		}
		last = it.Ts
		if it.Kind != stream.KindTuple {
			return
		}
		if fed++; fed%every == 0 {
			a, b := j.PunctSetSizes()
			sets, state = append(sets, a+b), append(state, j.StateTuples())
			closed = append(closed, g.ClosedIntervals())
		}
	}
	// gen holds a schedule in memory, so a long run is generated a chunk
	// at a time: each chunk on fresh keys and later times, its keys closed
	// on both sides by a range once it is fed.
	const chunk = 200_000
	var keyOff int64
	for c := 0; fed < soakTuples; c++ {
		arrs, err := gen.Synthetic(gen.Config{
			Seed: uint64(c + 1), MaxTuples: min(chunk, soakTuples-fed), Duration: 1 << 62,
			WindowKeys: soakWindow, A: sc.a, B: sc.b, AlignedPunctuation: sc.aligned,
		})
		if err != nil {
			t.Fatal(err)
		}
		tsOff, maxKey := last+1, int64(0)
		for _, a := range arrs {
			it := a.Item
			it.Ts += tsOff
			if it.Kind == stream.KindTuple {
				k := it.Tuple.Values[gen.KeyAttr].IntVal()
				maxKey = max(maxKey, k)
				sch := gen.SchemaA
				if a.Port == 1 {
					sch = gen.SchemaB
				}
				it.Tuple = stream.MustTuple(sch, it.Ts, value.Int(k+keyOff), it.Tuple.Values[1])
			} else {
				it.Punct = shiftKey(t, it.Punct, keyOff)
				if sc.runs > 0 {
					held[a.Port] = append(held[a.Port], it.Punct.PatternAt(gen.KeyAttr).ConstVal().IntVal())
					if len(held[a.Port]) < sc.runs {
						continue
					}
					ks := held[a.Port]
					it.Punct = punct.MustKeyOnly(2, gen.KeyAttr, punct.MustRange(value.Int(ks[0]), value.Int(ks[len(ks)-1])))
					held[a.Port] = ks[:0]
				}
				if sc.narrow {
					feed(a.Port, stream.PunctItem(punct.MustNew(it.Punct.PatternAt(gen.KeyAttr), punct.Const(value.Str("-"))), it.Ts))
				}
			}
			feed(a.Port, it)
		}
		held = [2][]int64{} // the range below covers them
		all := punct.MustKeyOnly(2, gen.KeyAttr, punct.MustRange(value.Int(keyOff), value.Int(keyOff+maxKey)))
		for port := 0; port < 2; port++ {
			feed(port, stream.PunctItem(all, last+1))
		}
		keyOff += maxKey + 1
	}
	for port := 0; port < 2; port++ {
		last++
		if err := j.Process(port, stream.EOSItem(last), last); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Finish(last + 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finish(last + 1); err != nil {
		t.Fatal(err)
	}
	if m := j.Metrics(); spill && (m.Relocations == 0 || m.DiskPasses == 0) {
		t.Fatalf("the spilling run relocated %d times in %d disk passes", m.Relocations, m.DiskPasses)
	}
	if g.EarlyEmitted() == 0 {
		t.Fatal("no punctuation closed a group early")
	}
	return sets, state, closed
}

// shiftKey moves a key-only punctuation's constant or range by off.
func shiftKey(t *testing.T, p punct.Punctuation, off int64) punct.Punctuation {
	t.Helper()
	pat := p.PatternAt(gen.KeyAttr)
	switch pat.Kind() {
	case punct.Constant:
		pat = punct.Const(value.Int(pat.ConstVal().IntVal() + off))
	case punct.Range:
		lo, hi := pat.Bounds()
		pat = punct.MustRange(value.Int(lo.IntVal()+off), value.Int(hi.IntVal()+off))
	default:
		t.Fatalf("unexpected punctuation %s", p)
	}
	return punct.MustKeyOnly(p.Width(), gen.KeyAttr, pat)
}

// checkSoak fails a sampled series that passes its bound, or whose
// least-squares slope over the second half adds more than a tenth of the
// bound across that half.
func checkSoak(t *testing.T, what string, xs []int, bound int) {
	t.Helper()
	if p := peak(xs); p > bound {
		t.Errorf("%s peaked at %d, bound %d", what, p, bound)
	}
	half := xs[len(xs)/2:]
	n := float64(len(half))
	var sx, sy, sxx, sxy float64
	for i, y := range half {
		x := float64(i)
		sx, sy, sxx, sxy = sx+x, sy+float64(y), sxx+x*x, sxy+x*float64(y)
	}
	slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	if growth := slope * n; growth > float64(bound)/10 {
		t.Errorf("%s grew by %.0f over the second half (slope %.2f per sample), bound %d", what, growth, slope, bound)
	}
}

func peak(xs []int) int {
	p := 0
	for _, x := range xs {
		p = max(p, x)
	}
	return p
}
