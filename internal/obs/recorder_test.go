package obs

import (
	"sync"
	"testing"

	"pjoin/internal/obs/span"
	"pjoin/internal/stream"
)

func TestRecorderEventsAndCount(t *testing.T) {
	r := &span.Recorder{}
	if !r.Enabled() {
		t.Fatal("recorder must be enabled")
	}
	r.Emit(span.Span{Kind: span.KindTupleProbe, At: 1})
	r.Emit(span.Span{Kind: span.KindPurgeRun, At: 2})
	r.Emit(span.Span{Kind: span.KindTupleProbe, At: 3})
	if got := r.Count(span.KindTupleProbe); got != 2 {
		t.Fatalf("Count(tuple_probe) = %d, want 2", got)
	}
	if got := r.Count(span.KindPunctEmit); got != 0 {
		t.Fatalf("Count(punct_emit) = %d, want 0", got)
	}
	evs := r.Spans()
	if len(evs) != 3 {
		t.Fatalf("Spans len = %d, want 3", len(evs))
	}
	// Spans returns a copy — mutating it must not affect the recorder.
	evs[0].Kind = span.KindPurgeRun
	if got := r.Count(span.KindPurgeRun); got != 1 {
		t.Fatalf("Spans() aliases internal storage: Count(purge_run) = %d", got)
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		r.Emit(span.Span{Kind: span.KindTupleProbe, At: stream.Time(i)})
	}
	snap := r.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot len = %d, want 5", len(snap))
	}
	for i, e := range snap {
		if e.At != stream.Time(i) {
			t.Fatalf("snap[%d].At = %d, want %d", i, e.At, i)
		}
	}
	if r.Total() != 5 {
		t.Fatalf("Total = %d, want 5", r.Total())
	}
}

// TestRingWrapAround fills the ring several times over and checks that
// exactly the newest `capacity` events survive, oldest first.
func TestRingWrapAround(t *testing.T) {
	const capacity, n = 8, 27
	r := NewRing(capacity)
	for i := 0; i < n; i++ {
		r.Emit(span.Span{Kind: span.KindTupleProbe, At: stream.Time(i)})
	}
	snap := r.Snapshot()
	if len(snap) != capacity {
		t.Fatalf("snapshot len = %d, want %d", len(snap), capacity)
	}
	for i, e := range snap {
		want := stream.Time(n - capacity + i)
		if e.At != want {
			t.Fatalf("snap[%d].At = %d, want %d (oldest→newest order)", i, e.At, want)
		}
	}
	if r.Total() != n {
		t.Fatalf("Total = %d, want %d", r.Total(), n)
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(0) // clamps to 1
	r.Emit(span.Span{At: 1})
	r.Emit(span.Span{At: 2})
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].At != 2 {
		t.Fatalf("snapshot = %+v, want just the newest event", snap)
	}
}

// TestRingConcurrentDetach hammers a ring from writer goroutines while
// another goroutine detaches it and snapshots — the -race proof that
// Detach is safe against in-flight Emit calls.
func TestRingConcurrentDetach(t *testing.T) {
	r := NewRing(64)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 5000; i++ {
				if !r.Enabled() {
					return
				}
				r.Emit(span.Span{Kind: span.KindTupleProbe, At: stream.Time(i), Side: int8(w)})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 100; i++ {
			_ = r.Snapshot()
		}
		r.Detach()
	}()
	close(start)
	wg.Wait()
	if r.Enabled() {
		t.Fatal("ring still enabled after Detach")
	}
	totalAtDetach := r.Total()
	// Post-detach spans are dropped.
	r.Emit(span.Span{At: 999})
	if r.Total() != totalAtDetach {
		t.Fatalf("Emit after Detach recorded: total %d -> %d", totalAtDetach, r.Total())
	}
	if len(r.Snapshot()) > 64 {
		t.Fatalf("snapshot exceeds capacity: %d", len(r.Snapshot()))
	}
}
