package hist

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestBucketLayout proves the log-linear layout is a partition: bucket
// ranges are contiguous, non-overlapping, and bucketIndex agrees with
// BucketBounds at every edge.
func TestBucketLayout(t *testing.T) {
	var prevHi int64
	for i := 0; i < NumBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo != prevHi {
			t.Fatalf("bucket %d: lo %d, want %d (contiguity)", i, lo, prevHi)
		}
		if hi <= lo {
			t.Fatalf("bucket %d: empty range [%d, %d)", i, lo, hi)
		}
		if got := bucketIndex(uint64(lo)); got != i {
			t.Fatalf("bucketIndex(lo=%d) = %d, want %d", lo, got, i)
		}
		if got := bucketIndex(uint64(hi - 1)); got != i {
			t.Fatalf("bucketIndex(hi-1=%d) = %d, want %d", hi-1, got, i)
		}
		prevHi = hi
	}
	// The layout must cover every positive int64.
	if got := bucketIndex(uint64(math.MaxInt64)); got != NumBuckets-1 {
		t.Fatalf("MaxInt64 lands in bucket %d, want last (%d)", got, NumBuckets-1)
	}
}

// TestRelativeError checks the layout's resolution promise: for any
// value, the bucket width is at most 1/subBuckets of the value.
func TestRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		v := rng.Int63()
		lo, hi := BucketBounds(bucketIndex(uint64(v)))
		if v < lo || (v >= hi && hi != math.MaxInt64) {
			t.Fatalf("value %d outside its bucket [%d, %d)", v, lo, hi)
		}
		if width := hi - lo; v >= subBuckets && float64(width) > float64(v)/float64(subBuckets)+1 {
			t.Fatalf("value %d: bucket width %d exceeds %d-th of value", v, width, subBuckets)
		}
	}
}

func TestQuantilesAndStats(t *testing.T) {
	h := New()
	// 1..1000 (ns): exact small-value buckets up to 31, ~3% above.
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Max != 1000 {
		t.Fatalf("Max = %d", s.Max)
	}
	if want := 1000 * 1001 / 2; s.Sum != int64(want) {
		t.Fatalf("Sum = %d, want %d", s.Sum, want)
	}
	if mean := s.Mean(); math.Abs(mean-500.5) > 1e-9 {
		t.Fatalf("Mean = %g", mean)
	}
	checks := []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.95, 950}, {0.99, 990}, {1.0, 1000}}
	for _, c := range checks {
		got := float64(s.Quantile(c.q))
		if math.Abs(got-c.want)/c.want > 0.05 {
			t.Errorf("q%.2f = %g, want ~%g", c.q, got, c.want)
		}
	}
	if s.Quantile(1.0) != s.Max {
		t.Errorf("q1.0 = %d, want exact max %d", s.Quantile(1.0), s.Max)
	}
}

func TestEmptyAndNil(t *testing.T) {
	var nilH *Hist
	nilH.Record(5) // must not panic
	s := nilH.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Errorf("nil snapshot not empty: %+v", s)
	}
	h := New()
	h.Record(-100) // clamps to 0
	if got := h.Snapshot(); got.Count != 1 || got.Max != 0 || got.Sum != 0 {
		t.Errorf("negative clamp: %+v", got)
	}
}

func TestCumulativeAtOrBelow(t *testing.T) {
	h := New()
	for _, v := range []int64{1, 10, 100, 1000, 100_000} {
		h.Record(v)
	}
	s := h.Snapshot()
	cases := []struct {
		bound int64
		want  int64
	}{{0, 0}, {1, 1}, {16, 2}, {1 << 10, 4}, {1 << 20, 5}, {-1, 0}}
	for _, c := range cases {
		if got := s.CumulativeAtOrBelow(c.bound); got != c.want {
			t.Errorf("CumulativeAtOrBelow(%d) = %d, want %d", c.bound, got, c.want)
		}
	}
	// Power-of-two bounds must be monotone non-decreasing (the
	// Prometheus bucket invariant).
	var prev int64
	for k := 0; k < 63; k++ {
		got := s.CumulativeAtOrBelow(int64(1) << uint(k))
		if got < prev {
			t.Fatalf("cumulative counts decreased at 2^%d: %d < %d", k, got, prev)
		}
		prev = got
	}
	if prev != s.Count {
		t.Fatalf("cumulative at 2^62 = %d, want total %d", prev, s.Count)
	}
}

// TestRecordDoesNotAllocate is the record-path budget: operators record
// one sample per result on their hot paths, so Record must be 0 allocs.
func TestRecordDoesNotAllocate(t *testing.T) {
	h := New()
	v := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v += 997
	})
	if allocs != 0 {
		t.Errorf("Record allocates %.1f/op, want 0", allocs)
	}
	var nilH *Hist
	allocs = testing.AllocsPerRun(1000, func() { nilH.Record(1) })
	if allocs != 0 {
		t.Errorf("nil Record allocates %.1f/op, want 0", allocs)
	}
}

// TestConcurrentSnapshotWhileRecording exercises the lock-free contract
// under the race detector: a writer records while readers snapshot.
func TestConcurrentSnapshotWhileRecording(t *testing.T) {
	h := New()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v := int64(0)
		for {
			select {
			case <-done:
				return
			default:
				h.Record(v % 1_000_000)
				v++
			}
		}
	}()
	var lastCount int64
	for i := 0; i < 100; i++ {
		s := h.Snapshot()
		if s.Count < lastCount {
			t.Fatalf("snapshot count went backwards: %d -> %d", lastCount, s.Count)
		}
		lastCount = s.Count
	}
	close(done)
	wg.Wait()
	final := h.Snapshot()
	var total int64
	for _, c := range final.Counts {
		total += c
	}
	if total != final.Count {
		t.Fatalf("bucket total %d != Count %d", total, final.Count)
	}
}

func BenchmarkRecord(b *testing.B) {
	h := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i) * 31)
	}
}
