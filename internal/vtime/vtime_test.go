package vtime

import (
	"math"
	"testing"

	"pjoin/internal/stream"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same sequence")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 1 and 2 collide on %d of 100 draws", same)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed should still generate values")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRNG(4)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		n := r.Intn(10)
		if n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %d", n)
		}
		seen[n] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) hit only %d values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestInt63n(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		n := r.Int63n(1 << 40)
		if n < 0 || n >= 1<<40 {
			t.Fatalf("Int63n out of range: %d", n)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Int63n(-1) should panic")
		}
	}()
	r.Int63n(-1)
}

func TestExpMean(t *testing.T) {
	r := NewRNG(6)
	const n = 200000
	mean := 2.0
	var sum float64
	for i := 0; i < n; i++ {
		x := r.Exp(mean)
		if x < 0 {
			t.Fatalf("Exp returned negative %g", x)
		}
		sum += x
	}
	got := sum / n
	if math.Abs(got-mean) > 0.05 {
		t.Errorf("Exp sample mean = %g, want ~%g", got, mean)
	}
}

func TestExpPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) should panic")
		}
	}()
	NewRNG(1).Exp(0)
}

func TestExpDurationPositive(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 10000; i++ {
		if d := r.ExpDuration(2 * stream.Millisecond); d < 1 {
			t.Fatalf("ExpDuration returned %d", d)
		}
	}
}

func TestEventQueueOrdering(t *testing.T) {
	q := NewEventQueue()
	q.Push(30, "c")
	q.Push(10, "a")
	q.Push(20, "b")
	var got []string
	for q.Len() > 0 {
		got = append(got, q.Pop().Payload.(string))
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEventQueueFIFOTies(t *testing.T) {
	q := NewEventQueue()
	for i := 0; i < 50; i++ {
		q.Push(100, i)
	}
	for i := 0; i < 50; i++ {
		if got := q.Pop().Payload.(int); got != i {
			t.Fatalf("tie-break not FIFO: got %d at position %d", got, i)
		}
	}
}

func TestEventQueueEmptyPanics(t *testing.T) {
	q := NewEventQueue()
	for name, f := range map[string]func(){
		"Pop": func() { q.Pop() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty queue should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestEventQueueInterleaved(t *testing.T) {
	q := NewEventQueue()
	q.Push(10, 10)
	q.Push(5, 5)
	if e := q.Pop(); e.At != 5 {
		t.Fatalf("first pop at %d", e.At)
	}
	q.Push(7, 7)
	q.Push(3, 3) // earlier than an already popped event is still served next
	if e := q.Pop(); e.At != 3 {
		t.Fatalf("second pop at %d", e.At)
	}
	if e := q.Pop(); e.At != 7 {
		t.Fatalf("third pop at %d", e.At)
	}
	if e := q.Pop(); e.At != 10 {
		t.Fatalf("fourth pop at %d", e.At)
	}
}

// The empirical distribution of Exp should roughly match the exponential
// CDF at a few quantiles: P(X < mean) ≈ 1 - 1/e ≈ 0.632.
func TestExpShape(t *testing.T) {
	r := NewRNG(11)
	const n = 100000
	mean := 4.0
	below := 0
	for i := 0; i < n; i++ {
		if r.Exp(mean) < mean {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.632) > 0.01 {
		t.Errorf("P(X < mean) = %g, want ~0.632", frac)
	}
}
