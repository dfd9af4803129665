// Package vtime provides the deterministic time and randomness substrate
// for workload generation and simulation: a seedable 64-bit RNG with
// exponential sampling (Poisson inter-arrival times, as the paper's
// benchmark system uses) and a discrete-event queue.
//
// Everything here is deterministic given a seed, so every experiment in
// the harness is exactly reproducible.
package vtime

import (
	"container/heap"
	"math"

	"pjoin/internal/stream"
)

// RNG is a small, fast, seedable random number generator
// (splitmix64-seeded xorshift128+). It is NOT cryptographic; it exists so
// workloads are reproducible without importing math/rand state handling.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded from seed via splitmix64, so nearby
// seeds give unrelated sequences.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1 // xorshift state must be non-zero
	}
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("vtime: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("vtime: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed float with the given mean —
// the inter-arrival time of a Poisson process with rate 1/mean.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("vtime: Exp with non-positive mean")
	}
	u := r.Float64()
	// Guard the log: Float64 can return exactly 0.
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(u)
}

// ExpDuration returns an exponential stream.Time interval with the given
// mean, always at least 1ns so virtual time strictly advances.
func (r *RNG) ExpDuration(mean stream.Time) stream.Time {
	d := stream.Time(r.Exp(float64(mean)))
	if d < 1 {
		d = 1
	}
	return d
}

// Event is an entry in the discrete-event queue: a time and a payload.
type Event struct {
	At      stream.Time
	Payload any
	seq     uint64 // insertion order, breaks At ties FIFO
}

// EventQueue is a min-heap of events ordered by time, with FIFO order for
// equal times so simulation is deterministic.
type EventQueue struct {
	h   eventHeap
	seq uint64
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// Push schedules a payload at time at.
func (q *EventQueue) Push(at stream.Time, payload any) {
	q.seq++
	heap.Push(&q.h, Event{At: at, Payload: payload, seq: q.seq})
}

// Pop removes and returns the earliest event. It panics on an empty
// queue; check Len first.
func (q *EventQueue) Pop() Event {
	if len(q.h) == 0 {
		panic("vtime: Pop on empty EventQueue")
	}
	return heap.Pop(&q.h).(Event)
}

type eventHeap []Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(Event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
