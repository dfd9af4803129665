// Package hist provides the fixed-bucket, log-scaled latency histogram
// behind the operator latency metrics (internal/obs.Lat): an HDR-style
// log-linear layout — 32 sub-buckets per power-of-two octave, ≤ ~3%
// relative quantile error — over non-negative int64 values (nanoseconds
// by convention).
//
// # Record-path contract
//
// Record is allocation-free and lock-free: one bounds clamp, one
// bit-length bucket computation, three atomic adds and (only when a new
// maximum is observed) a CAS. Operators therefore record one sample per
// emitted result / propagated punctuation / purge run unconditionally on
// their hot paths. The intended discipline is single-writer per
// histogram (each operator instance owns its histograms), but because
// every counter is
// atomic the structure degrades gracefully — concurrent writers are safe,
// never lost, merely unordered.
//
// Readers call Snapshot from any goroutine (the Prometheus endpoint, the
// flight recorder, the bench harness) without stopping the writer. A
// snapshot taken mid-run may tear slightly between the bucket counts and
// Sum/Max (they are separate atomics); Count is always internally
// consistent with the buckets because it is derived from them.
package hist

import (
	"math"
	"math/bits"
	"sync/atomic"
)

const (
	// subBits fixes the resolution: 1<<subBits sub-buckets per octave.
	subBits    = 5
	subBuckets = 1 << subBits

	// NumBuckets is the fixed bucket count. Values 0..subBuckets-1 map
	// one-to-one onto the first subBuckets buckets; every later octave
	// [2^k, 2^(k+1)) for k >= subBits contributes subBuckets log-linear
	// buckets. Positive int64 needs octaves up to 2^62, i.e. bit lengths
	// subBits+1 .. 63.
	NumBuckets = subBuckets + (63-subBits)*subBuckets
)

// Hist is the histogram. The zero value is NOT ready; use New (the
// struct is large and meant to live behind a pointer).
type Hist struct {
	counts [NumBuckets]atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// New returns an empty histogram.
func New() *Hist { return &Hist{} }

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(u uint64) int {
	if u < subBuckets {
		return int(u)
	}
	n := bits.Len64(u) // 2^(n-1) <= u < 2^n, n > subBits
	shift := uint(n - 1 - subBits)
	sub := int((u >> shift) & (subBuckets - 1))
	return (n-subBits)*subBuckets + sub
}

// BucketBounds returns bucket i's value range [lo, hi): samples v with
// lo <= v < hi land in bucket i. The final bucket's upper edge would be
// 2^63, which overflows int64; it is clamped to MaxInt64, making the
// last range [lo, MaxInt64] inclusive.
func BucketBounds(i int) (lo, hi int64) {
	if i < subBuckets {
		return int64(i), int64(i) + 1
	}
	b := i / subBuckets // octave ordinal, >= 1
	sub := int64(i % subBuckets)
	width := int64(1) << uint(b-1)
	lo = (subBuckets + sub) << uint(b-1)
	hi = lo + width
	if hi < lo { // 2^63 overflowed: last bucket
		hi = math.MaxInt64
	}
	return lo, hi
}

// Record adds one sample. Negative values clamp to zero (latencies are
// non-negative by construction; the clamp keeps a clock anomaly from
// panicking the hot path). Record on a nil histogram is a no-op.
//
//pjoin:hotpath
func (h *Hist) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(uint64(v))].Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m {
			return
		}
		if h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Snapshot is a point-in-time copy of a histogram, safe to read and
// serialise at leisure. The zero value is an empty snapshot.
type Snapshot struct {
	Count  int64
	Sum    int64
	Max    int64
	Counts []int64 // len NumBuckets when non-empty
}

// Snapshot copies the histogram. It allocates (one slice) — it is the
// read path, not the record path.
func (h *Hist) Snapshot() Snapshot {
	if h == nil {
		return Snapshot{}
	}
	s := Snapshot{Counts: make([]int64, NumBuckets)}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) of
// the recorded samples: the upper edge of the bucket holding the
// rank-⌈q·count⌉ sample, clamped to Max. Returns 0 for an empty
// snapshot. The bucket layout bounds the relative error at ~3%.
func (s Snapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range s.Counts {
		seen += c
		if seen >= rank {
			_, hi := BucketBounds(i)
			// The bucket's upper edge is exclusive; Max is the exact
			// largest sample, so never report beyond it.
			v := hi - 1
			if v > s.Max {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of the samples (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// CumulativeAtOrBelow returns how many samples fall in buckets whose
// entire range lies at or below bound — the cumulative count backing a
// Prometheus `le` bucket. Bounds that are exact bucket edges (powers of
// two are always edges) make this exact; other bounds are rounded down
// to the previous edge.
func (s Snapshot) CumulativeAtOrBelow(bound int64) int64 {
	if len(s.Counts) == 0 || bound < 0 {
		return 0
	}
	var n int64
	for i, c := range s.Counts {
		if _, hi := BucketBounds(i); hi-1 > bound {
			break
		}
		n += c
	}
	return n
}
