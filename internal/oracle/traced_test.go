package oracle

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pjoin/internal/obs/span"
)

// TestTracedOracle is the provenance soak: seeded scenarios through the
// traced slice (drained/budgeted disk passes, batched delivery), every
// run's span stream reconciled against the operator's
// own accounting by checkSpans — purge attribution sums exactly to
// Metrics.Purged, drop-on-the-fly to DroppedOnFly, emits to PunctsOut,
// and every punctuation
// lifecycle closes with no orphans.
func TestTracedOracle(t *testing.T) {
	n := soakSeeds(t)
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failed []string
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seed := next.Add(1)
				if seed > int64(n) {
					return
				}
				ds := CheckSeedTraced(uint64(seed))
				if len(ds) == 0 {
					continue
				}
				mu.Lock()
				failed = append(failed, fmt.Sprintf("seed %d:\n%s", seed, Report(ds)))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, f := range failed {
		t.Error(f)
	}
}

// TestTracedRunEmitsLifecycles sanity-pins the traced runner itself on
// one seed: a run with punctuations must actually produce punctuation
// lifecycles (a reconciliation that trivially passes on zero spans
// would be vacuous).
func TestTracedRunEmitsLifecycles(t *testing.T) {
	sc := FromSeed(1)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	out, rec := RunTraced(sc, Variant{Op: "pjoin"})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.FedPuncts[0]+out.FedPuncts[1] == 0 {
		t.Skip("seed 1 generated no punctuations; lifecycle pin is vacuous")
	}
	counts := map[span.Kind]int{}
	for _, s := range rec.Spans() {
		counts[s.Kind]++
	}
	if counts[span.KindPunctArrive] == 0 {
		t.Fatal("no punct_arrive spans despite punctuations being fed")
	}
	if counts[span.KindPunctEmit]+counts[span.KindPunctEOSClose] == 0 {
		t.Fatal("no terminal punctuation spans")
	}
	if got := int64(counts[span.KindPunctArrive]); got != out.FedPuncts[0]+out.FedPuncts[1] {
		t.Fatalf("punct_arrive spans=%d, driver fed %d punctuations",
			got, out.FedPuncts[0]+out.FedPuncts[1])
	}

}
