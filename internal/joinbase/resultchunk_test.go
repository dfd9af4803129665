package joinbase

import (
	"testing"

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
	perBurst := testing.AllocsPerRun(320, func() {
		if _, err := base.ProbeOpposite(0, probe); err != nil {
			t.Fatal(err)
		}
	})
	if perChunk := perBurst * resultChunk / fanout; perChunk > 2 {
		t.Errorf("%.2f allocations per %d-match burst = %.2f per chunk of %d results, want at most 2",
			perBurst, fanout, perChunk, resultChunk)
	}
}

// TestHotKeyBurstNeverGrowsTheSlab pins the chunk size as a constant: a
// 10,000-match burst must fill many chunks, never one slab sized to the
// burst that a single retained result would keep alive. Every refill is
// followed by an emit, so checking the chunk remainders' capacity in the
// emitter sees every slab ever allocated. It also checks that results
// cannot append into their neighbours.
func TestHotKeyBurstNeverGrowsTheSlab(t *testing.T) {
	const matches = 10000
	var base *Base
	width := benchSchemaA.Width() + benchSchemaB.Width()
	emitted := 0
	var prev *stream.Tuple
	base, probe := hotKeyBase(t, matches, func(res *stream.Tuple) error {
		emitted++
		if cap(base.resHdrs) >= resultChunk || cap(base.resVals) >= resultChunk*width {
			t.Fatalf("result %d: chunk remainders hold %d headers and %d values; a slab is %d and %d",
				emitted, cap(base.resHdrs), cap(base.resVals), resultChunk, resultChunk*width)
		}
		if len(res.Values) != width || cap(res.Values) != width {
			t.Fatalf("result %d: values len %d cap %d, want both %d", emitted, len(res.Values), cap(res.Values), width)
		}
		if prev != nil {
			first := res.Values[0]
			_ = append(prev.Values, value.Int(-1))
			if res.Values[0] != first {
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
