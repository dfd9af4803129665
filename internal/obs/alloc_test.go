package obs

import (
	"errors"
	"testing"

	"pjoin/internal/obs/span"
	"pjoin/internal/stream"
)

// The observability layer's contract: operators call Instr methods
// unconditionally from their probe/insert hot paths, so the disabled
// path must not allocate. Same convention as the hot-path guards in
// internal/joinbase and internal/punct.

func TestNilInstrDoesNotAllocate(t *testing.T) {
	var in *Instr
	allocs := testing.AllocsPerRun(1000, func() {
		if in.Enabled() {
			t.Fatal("unreachable")
		}
		in.Span(span.KindPurgeRun, 0, 1, 0, 2, 3, 0, 0)
		if in.Board().Due(1) {
			t.Fatal("unreachable")
		}
	})
	if allocs != 0 {
		t.Errorf("nil Instr hot path allocates %.1f/op, want 0", allocs)
	}
}

func TestNopTracerInstrDoesNotAllocate(t *testing.T) {
	in := NewInstr(span.Nop, nil, "pjoin")
	boom := errors.New("boom")
	allocs := testing.AllocsPerRun(1000, func() {
		if in.Enabled() {
			t.Fatal("unreachable")
		}
		in.Span(span.KindPurgeRun, 0, 1, 0, 2, 3, 0, 0)
		in.SpillError(1, 0, boom)
	})
	if allocs != 0 {
		t.Errorf("Nop-tracer hot path allocates %.1f/op, want 0", allocs)
	}
}

func TestDetachedSpansDoNotAllocate(t *testing.T) {
	// Detached tracing: span call sites are compiled in and called
	// unconditionally, but the tracer behind the handle records nothing —
	// here a flight ring after Detach. This is the contract the
	// benchmark's untraced rows (benchmark/: allocs_per_tuple,
	// live.cpu_us_per_tuple) are measured under — one branch, zero
	// allocations.
	ring := NewRing(8)
	ring.Detach()
	in := NewInstr(ring, nil, "pjoin")
	var smp *span.Sampler
	allocs := testing.AllocsPerRun(1000, func() {
		if in.Enabled() {
			t.Fatal("unreachable")
		}
		in.Span(span.KindTupleProbe, 7, 1, 0, 3, 12, 0, 0)
		in.Span(span.KindPunctPurgeMem, 7, 1, 0, 42, 0, 2048, 91000)
		if smp.Sample() {
			t.Fatal("unreachable")
		}
	})
	if allocs != 0 {
		t.Errorf("detached span hot path allocates %.1f/op, want 0", allocs)
	}
}

// TestLiveTickNotDueDoesNotAllocate: the join asks its board on every
// arrival, and publishes a snapshot when one is due; neither allocates.
func TestLiveTickNotDueDoesNotAllocate(t *testing.T) {
	b := NewBoard(stream.Time(1 << 60)) // never due after the first claim
	in := NewInstr(nil, b, "pjoin")
	if !in.Board().Due(0) {
		t.Fatal("the first tick is not due")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if in.Board().Due(1) {
			t.Fatal("tick due")
		}
	})
	if allocs != 0 {
		t.Errorf("not-due tick allocates %.1f/op, want 0", allocs)
	}
	every := NewBoard(1)
	g := Gauges{Op: "pjoin", Punct: true}
	now := stream.Time(0)
	allocs = testing.AllocsPerRun(1000, func() {
		now++
		if !every.Due(now) {
			t.Fatal("tick not due")
		}
		g.At, g.TuplesIn = now, int64(now)
		every.Publish(&g)
	})
	if allocs != 0 {
		t.Errorf("due publish allocates %.1f/op, want 0", allocs)
	}
	if got := every.Gauges(); got.TuplesIn != int64(now) || got.At != now {
		t.Errorf("board holds %+v, want the last publish at %v", got, now)
	}
}
