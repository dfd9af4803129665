package core

import (
	"testing"

	"pjoin/internal/op"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// TestPunctPathAllocs pins what handling a punctuation allocates in the
// steady state of the benchmark's punct_sat regime — direct drive, eager
// purge, propagation after every punctuation, constant patterns: nothing,
// with every released punctuation retiring into its set's closed keys.
// Its set entry is one an earlier propagation removed (punct.Set recycles
// them), the punctuation it is propagated as is a view of the one it
// arrived as (punct.Widen), and plans, pending and propagable lists, the
// purged key group and the index-build group all come from
// receiver-owned scratch.
func TestPunctPathAllocs(t *testing.T) {
	cfg := defaultConfig()
	cfg.Thresholds.Purge = 1
	cfg.Thresholds.PropagateCount = 1
	puncts := 0
	j, err := New(cfg, op.EmitterFunc(func(it stream.Item) error {
		if it.Kind == stream.KindPunct {
			puncts++
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}

	// Two tuples per side on every key, all resident before the first
	// punctuation, so each measured punctuation purges a group on the
	// opposite side and indexes one on its own.
	const warm, runs = 64, 256
	const keys = warm + 2*runs // AllocsPerRun warms up with one extra call
	var ts stream.Time
	feed := func(fi feedItem) {
		t.Helper()
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(0); k < keys; k++ {
		for r := 0; r < 2; r++ {
			feed(tupA(k, "a", ts+1))
			feed(tupB(k, "b", ts+2))
			ts += 2
		}
	}
	closeA := make([]feedItem, keys)
	closeB := make([]feedItem, keys)
	for k := range closeA {
		closeA[k] = punctFor(0, int64(k), ts+1)
		closeB[k] = punctFor(1, int64(k), ts+2)
		ts += 2
	}

	// One round closes a key on both sides: A's punctuation purges the B
	// group and indexes the A group (count 2, held back); B's purges the A
	// group, which takes A's count to zero, and finds its own group gone —
	// both are propagated.
	next := 0
	round := func() {
		feed(closeA[next])
		feed(closeB[next])
		next++
	}
	for next < warm {
		round()
	}
	// One measured call of all the rounds: AllocsPerRun would round a
	// per-round fraction down to zero.
	per := testing.AllocsPerRun(1, func() {
		for i := 0; i < runs; i++ {
			round()
		}
	}) / (2 * runs)
	t.Logf("%.4f allocations per punctuation", per)
	if per != 0 {
		t.Errorf("%.4f allocations per punctuation, want 0", per)
	}

	if want := 2 * next; puncts != want {
		t.Errorf("propagated %d punctuations over %d closed keys, want %d", puncts, next, want)
	}
	if m := j.Metrics(); m.Purged != int64(4*next) || m.IndexScanned != int64(2*next) {
		t.Errorf("purged %d tuples and index-scanned %d over %d closed keys, want %d and %d",
			m.Purged, m.IndexScanned, next, 4*next, 2*next)
	}
	// Every released punctuation retired: one interval per side is left.
	for s, set := range j.psets {
		if set.Len() != 0 || set.ClosedLen() != 1 || !set.SetMatchAttr(0, value.Int(0)) ||
			!set.SetMatchAttr(0, value.Int(int64(next-1))) || set.SetMatchAttr(0, value.Int(int64(next))) {
			t.Errorf("side %d holds %s and %d intervals after keys 0..%d closed on both sides, want one [0 .. %d]",
				s, set, set.ClosedLen(), next-1, next-1)
		}
	}
}
