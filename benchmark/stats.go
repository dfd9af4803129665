package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// dist is the summary printed for every end-to-end value: the median
// over timed rounds with min, quartiles, max and n beside it.
type dist struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarize returns the distribution of vs. Quartiles use the exclusive
// method of Python's statistics.quantiles(n=4), which is what the
// acceptance check computes, so the two agree on a spread (for three or
// more values; below that Python extrapolates and this clamps).
func summarize(vs []float64) dist {
	if len(vs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return dist{
		N: len(s), Min: s[0], Max: s[len(s)-1],
		Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75),
	}
}

// quantile reads the p-quantile of sorted s at position p*(n+1)
// (exclusive method), clamped to the sample range.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(math.Floor(pos))
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return summarize(vs).Median }

// spread is the interquartile distance as a share of the median.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / math.Abs(d.Median)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail with RUSAGE_SELF and a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is one reading of the process counters a run is charged with.
type usage struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
	bytes  uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: cpuTime(), allocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// calibSink keeps the calibration kernel's result live so the compiler
// cannot drop the loop.
var calibSink uint64

// calibrate times a fixed pure-Go kernel (integer mixing over a table
// that fits in L2, about 50 ms on the sizing host). It does the same
// work on every call, so its duration is a reading of host speed at that
// moment: a slow run next to a slow calibration is a slow machine, not a
// slow commit.
func calibrate() time.Duration {
	var table [1 << 13]uint64
	x := uint64(0x9E3779B97F4A7C15)
	start := time.Now()
	for i := 0; i < 12_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&(1<<13-1)] += x
	}
	d := time.Since(start)
	calibSink += table[x&(1<<13-1)]
	return d
}

// ms renders a duration in milliseconds with its fraction.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
