package gen

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"pjoin/internal/stream"
)

// digest is a hash of everything a schedule says: each arrival's port,
// kind, timestamp, span and rendering.
func digest(arrs []Arrival) string {
	h := sha256.New()
	for _, a := range arrs {
		fmt.Fprintf(h, "%d %d %d %d %s\n", a.Port, a.Item.Kind, a.Item.Ts, a.Item.Span, a.Item)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func side(tupleMean stream.Time, punctMean float64) SideSpec {
	return SideSpec{TupleMean: tupleMean, PunctMean: punctMean}
}

// synthCases are the benchmark's four synthetic shapes at a tenth of
// their length, the batched and aligned punctuation modes, and a
// MaxTuples cap under a Duration far past it.
var synthCases = []struct {
	name string
	cfg  Config
}{
	{"fanout", Config{Seed: 1, Duration: 8000 * stream.Millisecond, A: side(2*stream.Millisecond, 50), B: side(2*stream.Millisecond, 50)}},
	{"punct", Config{Seed: 2, Duration: 8000 * stream.Millisecond, WindowKeys: 1024, A: side(2*stream.Millisecond, 4), B: side(2*stream.Millisecond, 4)}},
	{"spill", Config{Seed: 3, Duration: 4000 * stream.Millisecond, WindowKeys: 512, A: side(2*stream.Millisecond, 40), B: side(2*stream.Millisecond, 40)}},
	{"asymmetric-batched", Config{Seed: 4, Duration: 3000 * stream.Millisecond,
		A: side(2*stream.Millisecond, 10), B: SideSpec{TupleMean: 3 * stream.Millisecond, PunctMean: 25, Batched: true}}},
	{"aligned", Config{Seed: 5, Duration: 2000 * stream.Millisecond, WindowKeys: 32, AlignedPunctuation: true,
		A: side(2*stream.Millisecond, 2), B: side(2*stream.Millisecond, 2)}},
	{"max-tuples", Config{Seed: 6, Duration: 1 << 62, MaxTuples: 5000, A: side(2*stream.Millisecond, 10), B: side(stream.Millisecond, 0)}},
}

// TestSchedulesUnchanged pins the generators' output for fixed seeds: a
// change to how a schedule is built must not change what it says.
func TestSchedulesUnchanged(t *testing.T) {
	// Digests of the output before the generators sized their schedules.
	want := map[string]string{
		"fanout":             "654e0d7ec105bc7c",
		"punct":              "a5747365602fa8fe",
		"spill":              "2d6a8f1a71716f69",
		"asymmetric-batched": "3939353cb376c080",
		"aligned":            "b852b529e2c34000",
		"max-tuples":         "8e2dad7c4e80efd4",
		"auction":            "64f3a5b43518d470",
		"auction-no-open":    "7f89e1edf419f5ff",
		"sensors":            "96ce81d68cbdca75",
	}
	got := map[string][]Arrival{}
	for _, c := range synthCases {
		arrs, err := Synthetic(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got[c.name] = arrs
	}
	for _, unique := range []bool{true, false} {
		arrs, err := Auction(auctionCase(unique))
		if err != nil {
			t.Fatal(err)
		}
		got[map[bool]string{true: "auction", false: "auction-no-open"}[unique]] = arrs
	}
	arrs, err := Sensors(sensorConfig())
	if err != nil {
		t.Fatal(err)
	}
	got["sensors"] = arrs
	for name, arrs := range got {
		if d := digest(arrs); d != want[name] {
			t.Errorf("%s: %d arrivals, digest %s, want %s", name, len(arrs), d, want[name])
		}
	}
}

// auctionCase is the benchmark's auction shape at a tenth of its items.
func auctionCase(unique bool) AuctionConfig {
	return AuctionConfig{Seed: 7, Items: 320, OpenMean: 2 * stream.Millisecond,
		AuctionLength: 400 * stream.Millisecond, BidMean: 20 * stream.Millisecond, UniqueOpenPunct: unique}
}

// TestSchedulesSizedOnce: a generator allocates its schedule once, at the
// capacity its config predicts — a schedule that outgrew it would have
// been copied to a larger one — and that capacity is not far above what
// it holds. A MaxTuples cap, not a Duration near 1<<62, bounds it: sized
// by Duration alone, make would panic.
func TestSchedulesSizedOnce(t *testing.T) {
	check := func(name string, arrs []Arrival, want int) {
		t.Helper()
		if cap(arrs) != want || len(arrs) < want*8/10 {
			t.Errorf("%s: %d arrivals in a capacity of %d, want capacity %d and at least 80%% used", name, len(arrs), cap(arrs), want)
		}
	}
	for _, c := range synthCases {
		arrs, err := Synthetic(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(c.name, arrs, sized(c.cfg.expected()))
		if c.cfg.MaxTuples > 0 && cap(arrs) > 2*c.cfg.MaxTuples {
			t.Errorf("%s: capacity %d for %d tuples", c.name, cap(arrs), c.cfg.MaxTuples)
		}
	}
	for _, unique := range []bool{true, false} {
		cfg := auctionCase(unique)
		arrs, err := Auction(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprint("auction unique=", unique), arrs, sized(float64(cfg.Items)*(3+float64(cfg.AuctionLength)/float64(cfg.BidMean))))
	}
}
