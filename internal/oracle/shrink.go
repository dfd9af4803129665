package oracle

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pjoin/internal/gen"
)

// Spec is a minimal replayable failure: the seed regenerates the full
// scenario deterministically, Prefix truncates the schedule, Drop
// removes individual arrivals (original indices), and Variant/Check
// name the matrix row and the property that diverged. Its String form
// is what CI prints and what `pjoinbench -oracle -replay` accepts:
//
//	seed=42 variant=pjoin/chunk=512 check=puncts prefix=57 drop=3,9,14
type Spec struct {
	Seed    uint64
	Variant Variant
	Check   string
	Prefix  int   // number of leading arrivals kept (-1 = all)
	Drop    []int // indices within the prefix removed, ascending
}

func (s Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d variant=%s check=%s", s.Seed, s.Variant, s.Check)
	if s.Prefix >= 0 {
		fmt.Fprintf(&b, " prefix=%d", s.Prefix)
	}
	if len(s.Drop) > 0 {
		strs := make([]string, len(s.Drop))
		for i, d := range s.Drop {
			strs[i] = strconv.Itoa(d)
		}
		fmt.Fprintf(&b, " drop=%s", strings.Join(strs, ","))
	}
	return b.String()
}

// ParseSpec is the inverse of Spec.String.
func ParseSpec(in string) (Spec, error) {
	s := Spec{Prefix: -1}
	for _, field := range strings.Fields(in) {
		k, val, ok := strings.Cut(field, "=")
		if !ok {
			return s, fmt.Errorf("oracle: bad spec field %q (want key=value)", field)
		}
		var err error
		switch k {
		case "seed":
			s.Seed, err = strconv.ParseUint(val, 10, 64)
		case "variant":
			s.Variant, err = ParseVariant(val)
		case "check":
			s.Check = val
		case "prefix":
			s.Prefix, err = strconv.Atoi(val)
		case "drop":
			for _, d := range strings.Split(val, ",") {
				n, derr := strconv.Atoi(d)
				if derr != nil {
					return s, fmt.Errorf("oracle: bad drop index %q in %q", d, in)
				}
				s.Drop = append(s.Drop, n)
			}
		default:
			return s, fmt.Errorf("oracle: unknown spec field %q", field)
		}
		if err != nil {
			return s, fmt.Errorf("oracle: bad spec field %q: %v", field, err)
		}
	}
	if s.Seed == 0 && len(s.Drop) == 0 && s.Prefix < 0 {
		return s, fmt.Errorf("oracle: empty spec %q", in)
	}
	return s, nil
}

// Scenario materialises the spec: regenerate from the seed, truncate
// to the prefix, drop the dropped indices. Dropping arrivals preserves
// every generator invariant — timestamps stay increasing and removing
// items only weakens punctuation promises, never falsifies them.
func (s Spec) Scenario() *Scenario {
	sc := FromSeed(s.Seed)
	sc.Arrivals = applyEdit(sc.Arrivals, s.Prefix, s.Drop)
	return sc
}

// Replay re-runs the spec's variant checks over its minimized
// scenario. Empty result = the failure no longer reproduces.
func (s Spec) Replay() []Divergence {
	return CheckOne(s.Scenario(), s.Variant)
}

func applyEdit(arrs []gen.Arrival, prefix int, drop []int) []gen.Arrival {
	if prefix >= 0 && prefix < len(arrs) {
		arrs = arrs[:prefix]
	}
	if len(drop) == 0 {
		return arrs
	}
	dropped := make(map[int]bool, len(drop))
	for _, d := range drop {
		dropped[d] = true
	}
	kept := make([]gen.Arrival, 0, len(arrs))
	for i, a := range arrs {
		if !dropped[i] {
			kept = append(kept, a)
		}
	}
	return kept
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
