package joinbase

import (
	"testing"
	"unsafe"

	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// hotKeyBase returns a Base whose side-1 state holds n tuples of one key
// and a side-0 probe tuple for that key.
func hotKeyBase(tb testing.TB, n int, emit EmitFunc) (*Base, *stream.Tuple) {
	tb.Helper()
	base := benchBase(&testing.B{})
	base.Emit = emit
	for i := 0; i < n; i++ {
		tp := stream.MustTuple(benchSchemaB, stream.Time(i+1), value.Int(7), value.Str("x"))
		if _, err := base.States[1].Insert(tp); err != nil {
			tb.Fatal(err)
		}
	}
	return base, stream.MustTuple(benchSchemaA, 1<<40, value.Int(7), value.Str("p"))
}

// resultChunk is how many results of this file's width (4 values) share
// one allocation of headers and one of values: stream.ResultSlab's chunk
// lengths, 31 headers and 124 values.
const resultChunk = 31

// TestProbeBurstAllocsPerResultChunk is the result-construction guard: a
// probe burst of fan-out 26 (the fan-out workloads' shape) allocates only
// when a result chunk runs out — one header chunk and one value chunk per
// resultChunk results — and nothing per result.
func TestProbeBurstAllocsPerResultChunk(t *testing.T) {
	const fanout = 26
	base, probe := hotKeyBase(t, fanout, func(*stream.Tuple) error { return nil })
	if n, err := base.ProbeOpposite(0, probe); err != nil || n != fanout {
		t.Fatalf("warm-up probe: %d matches, %v", n, err)
	}
	perBurst := testing.AllocsPerRun(310, func() {
		if _, err := base.ProbeOpposite(0, probe); err != nil {
			t.Fatal(err)
		}
	})
	if perChunk := perBurst * resultChunk / fanout; perChunk > 2 {
		t.Errorf("%.2f allocations per %d-match burst = %.2f per chunk of %d results, want at most 2",
			perBurst, fanout, perChunk, resultChunk)
	}
}

// TestPairEmitBuildsNoResult: with EmitPair set the base hands every
// result over as its pair, side 0 first, at the later partner's arrival
// (the probe's), counts it, and builds nothing.
func TestPairEmitBuildsNoResult(t *testing.T) {
	const fanout = 26
	base, probe := hotKeyBase(t, fanout, func(*stream.Tuple) error {
		t.Fatal("Emit called with EmitPair set")
		return nil
	})
	pairs := 0
	base.EmitPair = func(a, c *stream.Tuple, ts stream.Time) error {
		if a != probe || c == probe || ts != probe.Ts {
			t.Fatalf("pair %d at %d: side 0 is not the probing tuple, or the time not its arrival %d", pairs, ts, probe.Ts)
		}
		pairs++
		return nil
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := base.ProbeOpposite(0, probe); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a %d-match burst through EmitPair allocates %.2f, want 0", fanout, allocs)
	}
	if pairs != 101*fanout || base.M.TuplesOut != int64(pairs) {
		t.Errorf("%d pairs emitted, TuplesOut %d, want both %d", pairs, base.M.TuplesOut, 101*fanout)
	}
}

// TestHotKeyBurstNeverGrowsTheSlab pins the chunk size as a constant: a
// 10,000-match burst must fill many chunks, never one slab sized to the
// burst that a single retained result would keep alive. Every refill is
// followed by an emit, so checking what the slab holds on to in the
// emitter sees every chunk ever allocated: it must stay the one pair of
// chunks the first result was carved from. It also checks that results
// cannot append into their neighbours.
func TestHotKeyBurstNeverGrowsTheSlab(t *testing.T) {
	const matches = 10000
	var base *Base
	width := benchSchemaA.Width() + benchSchemaB.Width()
	emitted, oneChunk := 0, 0
	var prev *stream.Tuple
	base, probe := hotKeyBase(t, matches, func(res *stream.Tuple) error {
		emitted++
		if emitted == 1 {
			oneChunk = base.res.RetainedBytes()
		}
		if got := base.res.RetainedBytes(); got != oneChunk || got > resultChunk*int(unsafe.Sizeof(stream.Tuple{})+uintptr(width)*unsafe.Sizeof(value.Value{})) {
			t.Fatalf("result %d: the slab retains %d B; one chunk of headers and one of values are %d B",
				emitted, got, oneChunk)
		}
		if len(res.Values) != width || cap(res.Values) != width {
			t.Fatalf("result %d: values len %d cap %d, want both %d", emitted, len(res.Values), cap(res.Values), width)
		}
		if prev != nil {
			first := res.Values[0]
			_ = append(prev.Values, value.Int(-1))
			if !res.Values[0].Equal(first) {
				t.Fatalf("result %d: an append to the previous result wrote into this one", emitted)
			}
		}
		prev = res
		return nil
	})
	if n, err := base.ProbeOpposite(0, probe); err != nil || n != matches {
		t.Fatalf("%d matches, %v", n, err)
	}
	if emitted != matches {
		t.Fatalf("emitted %d results, want %d", emitted, matches)
	}
}
