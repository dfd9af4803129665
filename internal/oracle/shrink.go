package oracle

import (
	"fmt"
	"strconv"
	"strings"

	"pjoin/internal/gen"
)

// Spec is a minimal replayable failure: the seed regenerates the full
// scenario deterministically, Prefix truncates the schedule, Drop
// removes individual arrivals (original indices), and Variant/Check
// name the matrix row and the property that diverged. Its String form
// is what TestSoak prints and what `pjoinbench -oracle-replay` accepts:
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
