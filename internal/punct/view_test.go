package punct

import (
	"math/rand"
	"testing"
)

// TestWidenViewMatchesCopy holds the view Widen returns to the copy it
// replaced — the patterns placed in a fresh full-width slice — on every
// pattern kind, widths 1 to 6, every legal offset and a Widen of a Widen:
// every query answers alike, String byte for byte (the oracle's
// punctuation multisets and parallel's align key on it), and so do a set's lookups over the two. Place is
// held to its copy the same way.
func TestWidenViewMatchesCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	kinds := []Pattern{Star(), Const(iv(3)), MustRange(iv(2), iv(5)), MustEnum(iv(1), iv(4), iv(6)), None()}
	placed := func(width, off int, pats ...Pattern) Punctuation {
		ps := make([]Pattern, width)
		copy(ps[off:], pats)
		return MustNew(ps...)
	}
	for inner := 1; inner <= 6; inner++ {
		for width := inner; width <= 6; width++ {
			for off := 0; off+inner <= width; off++ {
				for trial := 0; trial < 3*len(kinds); trial++ {
					pats := make([]Pattern, inner)
					for i := range pats {
						pats[i] = kinds[(trial+i)%len(kinds)] // every kind at every position
						if trial >= len(kinds) {
							pats[i] = kinds[rng.Intn(len(kinds))]
						}
					}
					view, err := MustNew(pats...).Widen(width, off)
					if err != nil {
						t.Fatal(err)
					}
					sameAsCopy(t, rng, view, placed(width, off, pats...))
					if width < 6 {
						vv, err := view.Widen(width+1, 1)
						if err != nil {
							t.Fatal(err)
						}
						sameAsCopy(t, rng, vv, placed(width+1, off+1, pats...))
					}
					attr := rng.Intn(width)
					pl, err := view.Place(attr, 2, 1)
					if err != nil {
						t.Fatal(err)
					}
					sameAsCopy(t, rng, pl, MustNew(Star(), view.PatternAt(attr)))
				}
			}
		}
	}
}

// sameAsCopy fails t where view and its materialised copy answer a query
// differently.
func sameAsCopy(t *testing.T, rng *rand.Rand, view, cp Punctuation) {
	t.Helper()
	w := cp.Width()
	full := make([]Pattern, w)
	for i := range full {
		full[i] = cp.PatternAt(i)
	}
	agreesWithFull(t, view, full)
	if view.IsEmpty() != cp.IsEmpty() || view.IsZero() {
		t.Fatalf("%s: view empty %v zero %v, copy empty %v", cp, view.IsEmpty(), view.IsZero(), cp.IsEmpty())
	}
	other := make([]Pattern, w)
	for i := range other {
		other[i] = []Pattern{Star(), Const(iv(rng.Int63n(8))), MustRange(iv(1), iv(4))}[rng.Intn(3)]
	}
	q := MustNew(other...)
	if view.Equal(q) != cp.Equal(q) || q.Equal(view) != q.Equal(cp) {
		t.Fatalf("%s: Equal against %s differs on the view", cp, q)
	}
	va, err1 := view.And(q)
	ca, err2 := cp.And(q)
	if err1 != nil || err2 != nil || !va.Equal(ca) || va.String() != ca.String() {
		t.Fatalf("%s: And %s is %s on the view, %s on the copy (%v, %v)", cp, q, va, ca, err1, err2)
	}

	// The same set lookups over either: keyed on every attribute in turn.
	for key := 0; key < w; key++ {
		sv, sc := NewKeyedSet(key, false), NewKeyedSet(key, false)
		if _, err := sv.Add(view); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Add(cp); err != nil {
			t.Fatal(err)
		}
		for attr := 0; attr < w; attr++ {
			for v := int64(0); v < 8; v++ {
				if (sv.FirstMatchAttr(attr, iv(v)) == nil) != (sc.FirstMatchAttr(attr, iv(v)) == nil) {
					t.Fatalf("%s keyed on %d: FirstMatchAttr(%d, %d) differs on the view", cp, key, attr, v)
				}
			}
			dv, scanV := sv.PurgePlan(attr, NoPID)
			dc, scanC := sc.PurgePlan(attr, NoPID)
			if len(dv) != len(dc) || len(scanV) != len(scanC) {
				t.Fatalf("%s keyed on %d: PurgePlan(%d) is %v/%d on the view, %v/%d on the copy",
					cp, key, attr, dv, len(scanV), dc, len(scanC))
			}
			for i := range dv {
				if !dv[i].Equal(dc[i]) {
					t.Fatalf("%s keyed on %d: PurgePlan(%d) direct %v on the view, %v on the copy", cp, key, attr, dv, dc)
				}
			}
		}
	}
}
