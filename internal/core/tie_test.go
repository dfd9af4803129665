package core

import (
	"fmt"
	"testing"

	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// TestTiedArrivalsAcrossPorts: op.Operator allows a now that does not
// decrease across ports, so both ports may deliver at one timestamp (a
// cascade hands a result to the next join at its arrival's Ts). A disk
// pass orders a departure and an arrival by [ATS, DTS), which cannot tell
// two events at one timestamp apart; the join stamps each tied arrival
// one past the previous, so relocation and the disk join still produce
// every pair. Here tuple n of each port arrives at n+1, over 12 keys and
// 4 buckets, at three memory sizes.
func TestTiedArrivalsAcrossPorts(t *testing.T) {
	const n, keys = 72, 12
	var items []feedItem
	for i := 0; i < n; i++ {
		ts := stream.Time(i + 1)
		items = append(items,
			tupA(int64(i%keys), fmt.Sprintf("a%d", i), ts),
			tupB(int64(i%keys), fmt.Sprintf("b%d", i), ts))
	}
	want := map[string]int{}
	for _, a := range items {
		for _, b := range items {
			ta, tb := a.item.Tuple, b.item.Tuple
			if a.port == 0 && b.port == 1 && ta.Values[0].Equal(tb.Values[0]) {
				want[resultKey(ta)+"|"+resultKey(tb)]++
			}
		}
	}
	for _, mem := range []int64{256, 512, 1024} {
		t.Run(fmt.Sprint(mem), func(t *testing.T) {
			cfg := defaultConfig()
			cfg.NumBuckets = 4
			cfg.Thresholds.MemoryBytes = mem
			sink := &op.Collector{}
			j, err := New(cfg, sink)
			if err != nil {
				t.Fatal(err)
			}
			run(t, j, items)
			if j.Metrics().Relocations == 0 {
				t.Fatal("nothing relocated: the disk pass is not exercised")
			}
			got := multiset(sink.Tuples())
			if len(sink.Tuples()) != n*n/keys {
				t.Errorf("%d results, want %d", len(sink.Tuples()), n*n/keys)
			}
			diffMultisets(t, got, want)
		})
	}
}
