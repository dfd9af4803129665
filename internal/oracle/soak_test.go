package oracle

import (
	"sort"

	"pjoin/internal/stream"
)

// The soak's matrix, seed check and shrinker: TestSoak checks each seed
// against every row and shrinks a failure to the replay spec it prints.

// Matrix returns the full configuration matrix: PJoin and XJoin ×
// {DiskChunkBytes ∈ {0, 512}} × {FaultSpill off/on}: 4 PJoin rows + 4
// XJoin rows, all driven per item. The chunk
// axis is two schedules of the one disk-pass implementation — every pass
// drained inside the call that starts it, and passes stepped in the
// background at a budget small enough to split every partition read; one
// pjoin and one xjoin row add the 64 KiB budget the spill benchmark runs.
// On top of those, batched delivery (ProcessBatch with batch ∈ {8, 256} ×
// linger ∈ {0, 1ms virtual}) over four representative configurations —
// including a chunked row and a fault row (the injected sentinel must
// surface identically through the batch path): 16 more rows. Last, four
// scrambled rows (Variant.Scramble) — a single PJoin, a chunked one, an
// XJoin and a windowed PJoin (Variant.Window) — deliver tuples whose own
// Ts is not their arrival time, as the live executor does; every other
// row's tuples carry it, so a join that reads Tuple.Ts where the arrival
// time belongs fails these rows alone: 30 rows in all.
func Matrix() []Variant {
	var vs []Variant
	for _, chunk := range []int{0, 512} {
		for _, fault := range []bool{false, true} {
			for _, o := range []string{"pjoin", "xjoin"} {
				vs = append(vs, Variant{Op: o, Chunk: chunk, Fault: fault})
			}
		}
	}
	vs = append(vs,
		Variant{Op: "pjoin", Chunk: 64 << 10},
		Variant{Op: "xjoin", Chunk: 64 << 10})
	reps := []Variant{
		{Op: "pjoin"},
		{Op: "pjoin", Chunk: 512},
		{Op: "pjoin", Fault: true},
		{Op: "xjoin"},
	}
	for _, batch := range []int{8, 256} {
		for _, linger := range []stream.Time{0, stream.Millisecond} {
			for _, r := range reps {
				r.Batch, r.Linger = batch, linger
				vs = append(vs, r)
			}
		}
	}
	return append(vs,
		Variant{Op: "pjoin", Scramble: true},
		Variant{Op: "pjoin", Chunk: 512, Scramble: true},
		Variant{Op: "xjoin", Chunk: 512, Scramble: true},
		Variant{Op: "pjoin", Window: 20000, Scramble: true})
}

// CheckScenario runs the full differential matrix over the scenario:
// the shj brute-force oracle once, then every Matrix() variant,
// asserting
//
//   - result-tuple multisets bit-identical to the oracle's (for a window
//     row, to the oracle's pairs that lie within the window),
//   - propagated-punctuation multisets identical across all unwindowed
//     PJoin variants (XJoin ignores punctuations and must propagate none),
//   - the ordered output obeys Theorem 1 and ends in its one EOS
//     (checkOrder),
//   - every PJoin output punctuation is the output form of an input
//     punctuation on its port, at most once per input (checkLicensed),
//   - obs counters and latency histograms reconciled (checkObs),
//   - faulted variants either surface exactly ErrInjectedFault and
//     then succeed on a fault-free rerun (recovery), or never reach
//     the fault and pass the full checks.
//
// The returned divergences are empty iff the scenario passes.
func CheckScenario(sc *Scenario) []Divergence {
	ref, punctRef, ds := checkPrologue(sc)
	if ds != nil {
		return ds
	}
	for _, v := range Matrix() {
		ds = append(ds, checkVariant(sc, v, ref, punctRef)...)
	}
	return ds
}

// CheckSeed decodes and checks one seed. The convenience entry point
// for soak loops and pinned regression tests.
func CheckSeed(seed uint64) []Divergence {
	return CheckScenario(FromSeed(seed))
}

// Shrink minimizes a failing scenario to a Spec: first a binary search
// for the shortest failing arrival prefix, then greedy ddmin-style
// chunk removal (halving chunk sizes down to single items) over the
// surviving indices. The predicate is "CheckOne still reports a
// divergence with the original check kind for the original variant" —
// shrinking never trades one bug for a different-looking one.
//
// Each predicate call replays the full variant checks, so shrinking a
// scenario of n arrivals costs O(log n + n) check runs in the worst
// case; scenarios are a few hundred arrivals, so this is seconds.
func Shrink(seed uint64, d Divergence) Spec {
	n := len(FromSeed(seed).Arrivals)
	return shrinkWith(seed, d, n, func(prefix int, drop []int) bool {
		sc := FromSeed(seed)
		sc.Arrivals = applyEdit(sc.Arrivals, prefix, drop)
		for _, got := range CheckOne(sc, d.Variant) {
			if got.Check == d.Check {
				return true
			}
		}
		return false
	})
}

// shrinkWith is the predicate-generic shrinker core: n is the full
// schedule length, fails reports whether the (prefix, drop) edit still
// reproduces the divergence. Split from Shrink so the minimization
// machinery is testable against synthetic predicates.
func shrinkWith(seed uint64, d Divergence, n int, fails func(prefix int, drop []int) bool) Spec {
	spec := Spec{Seed: seed, Variant: d.Variant, Check: d.Check, Prefix: -1}
	if !fails(-1, nil) {
		// Not reproducible in isolation:
		// return the unshrunk spec so the seed is still pinned.
		return spec
	}
	// Phase 1: binary-search the smallest failing prefix. fails(p) is
	// not necessarily monotone in p, but the classic bisection still
	// converges on *a* failing prefix boundary, which is all we need.
	lo, hi := 0, n // invariant: fails(hi), !fails(lo) assumed
	if fails(0, nil) {
		hi = 0
	}
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if fails(mid, nil) {
			hi = mid
		} else {
			lo = mid
		}
	}
	spec.Prefix = hi
	// Phase 2: ddmin over the surviving arrivals — try removing chunks,
	// halving the chunk size until single items, keeping any removal
	// that still fails.
	kept := make([]int, hi)
	for i := range kept {
		kept[i] = i
	}
	dropOf := func(keep []int) []int {
		keepSet := make(map[int]bool, len(keep))
		for _, k := range keep {
			keepSet[k] = true
		}
		var drop []int
		for i := 0; i < hi; i++ {
			if !keepSet[i] {
				drop = append(drop, i)
			}
		}
		return drop
	}
	for chunk := len(kept) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start < len(kept); {
			end := start + chunk
			if end > len(kept) {
				end = len(kept)
			}
			candidate := append(append([]int{}, kept[:start]...), kept[end:]...)
			if len(candidate) < len(kept) && fails(spec.Prefix, dropOf(candidate)) {
				kept = candidate // removal kept the failure: retry same start
			} else {
				start = end
			}
		}
	}
	spec.Drop = dropOf(kept)
	sort.Ints(spec.Drop)
	return spec
}
