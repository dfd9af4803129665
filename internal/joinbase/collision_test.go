package joinbase

import (
	"fmt"
	"sort"
	"testing"

	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// TestDiskPassFullHashCollisions forces every key onto one full 64-bit
// hash (and therefore one bucket) and runs the memory-join/spill/disk-
// pass cycle: the equi-join must still emit exactly the equal-key pairs,
// each exactly once — the group index's collision handling must not leak
// into residence-interval bookkeeping or disk-pass candidate checks.
func TestDiskPassFullHashCollisions(t *testing.T) {
	b, results := newBase(t, 4)
	for side := 0; side < 2; side++ {
		b.States[side].SetHashFuncForTest(func(value.Value) uint64 { return 7 })
	}

	var ts stream.Time
	arrive := func(side int, tp *stream.Tuple) {
		t.Helper()
		if _, err := b.ProbeOpposite(side, tp); err != nil {
			t.Fatal(err)
		}
		if _, err := b.States[side].Insert(tp); err != nil {
			t.Fatal(err)
		}
	}

	// Interleave arrivals of keys 0..3 on both sides, spilling side A
	// mid-stream so later B arrivals owe disk joins.
	for i := 0; i < 8; i++ {
		ts++
		arrive(0, aTup(int64(i%4), ts))
	}
	ts++
	if v := b.States[0].LargestMemBucket(); v < 0 {
		t.Fatal("no spill victim")
	} else if _, err := b.States[0].SpillBucket(v, ts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ts++
		arrive(1, bTup(int64(i%4), ts))
	}
	ts++
	if !b.NeedsPass() {
		t.Fatal("disk pass not owed")
	}
	if err := runPass(b, ts, PassHooks{}); err != nil {
		t.Fatal(err)
	}

	// Every key appears twice per side: the exact join is 4 pairs per key.
	var got []string
	for _, tp := range *results {
		got = append(got, fmt.Sprintf("%s-%s", tp.Values[0], tp.Values[2]))
	}
	sort.Strings(got)
	var want []string
	for k := 0; k < 4; k++ {
		for n := 0; n < 4; n++ {
			want = append(want, fmt.Sprintf("%d-%d", k, k))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("emitted %d pairs, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair multiset diverges at %d: got %v", i, got)
		}
	}
}
