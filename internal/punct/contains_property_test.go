package punct

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pjoin/internal/value"
)

// randomPattern draws a pattern over a small integer domain so
// properties get dense coverage.
func randomPattern(rng *rand.Rand) Pattern {
	switch rng.Intn(5) {
	case 0:
		return Star()
	case 1:
		return None()
	case 2:
		return Const(iv(int64(rng.Intn(20))))
	case 3:
		lo := int64(rng.Intn(20))
		return MustRange(iv(lo), iv(lo+int64(rng.Intn(10))))
	default:
		n := 1 + rng.Intn(5)
		vs := make([]value.Value, 0, n)
		for i := 0; i < n; i++ {
			vs = append(vs, iv(int64(rng.Intn(20))))
		}
		return MustEnum(vs...)
	}
}

// Property: p.Contains(q) == (∀v: q.Matches(v) ⇒ p.Matches(v)) over the
// whole finite domain the patterns are drawn from. Contains is allowed
// to be exact here because the domain is integers, where the
// implementation's discrete reasoning applies.
func TestContainsMatchesSemanticsOnIntDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		p, q := randomPattern(rng), randomPattern(rng)
		want := true
		for v := int64(-1); v <= 31; v++ {
			if q.Matches(iv(v)) && !p.Matches(iv(v)) {
				want = false
				break
			}
		}
		got := p.Contains(q)
		if got && !want {
			// Contains claiming containment that does not hold would be
			// UNSOUND (verification and subsumption rely on it).
			t.Fatalf("UNSOUND: %v.Contains(%v) = true but %v escapes", p, q, q)
		}
		if !got && want && q.Kind() != Wildcard {
			// The implementation is allowed to be conservative only for
			// continuous kinds; over ints it should be exact.
			t.Errorf("incomplete: %v.Contains(%v) = false but containment holds", p, q)
		}
	}
}

// Property: Contains is reflexive and transitive on random patterns.
func TestContainsReflexiveTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pats []Pattern
	for i := 0; i < 40; i++ {
		pats = append(pats, randomPattern(rng))
	}
	for _, p := range pats {
		if !p.Contains(p) {
			t.Fatalf("%v does not contain itself", p)
		}
	}
	for _, a := range pats {
		for _, b := range pats {
			if !a.Contains(b) {
				continue
			}
			for _, c := range pats {
				if b.Contains(c) && !a.Contains(c) {
					t.Fatalf("transitivity broken: %v ⊇ %v ⊇ %v", a, b, c)
				}
			}
		}
	}
}

// Property: And is the greatest lower bound w.r.t. Contains — both
// operands contain the conjunction.
func TestAndBoundedByOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		a, b := randomPattern(rng), randomPattern(rng)
		ab := a.And(b)
		if !a.Contains(ab) || !b.Contains(ab) {
			t.Fatalf("%v.And(%v) = %v escapes an operand", a, b, ab)
		}
	}
}

// Property: the union Closed keeps is an upper bound — it contains both
// operands. A constant or range lies inside one interval (its values
// touch, so they coalesce), an enumeration's members are each closed, and
// a wildcard closes everything.
func TestUnionContainsOperands(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		a, b := randomPattern(rng), randomPattern(rng)
		c := closedOf(a, b)
		for _, op := range []Pattern{a, b} {
			if !closedContains(c, op) {
				t.Fatalf("%v then %v close %v, which does not contain %v", a, b, c.ivs, op)
			}
		}
	}
}

// closedContains reports whether c closes every value p matches.
func closedContains(c *Closed, p Pattern) bool {
	switch p.Kind() {
	case Wildcard:
		return c.all
	case Empty:
		return true
	case Enum:
		for _, v := range p.Members() {
			if !c.Has(v) {
				return false
			}
		}
		return true
	}
	if c.all {
		return true
	}
	for _, iv := range c.ivs {
		if MustRange(iv.lo, iv.hi).Contains(p) {
			return true
		}
	}
	return false
}

// quick.Check variant over arbitrary int64 constants: containment of
// constants is just equality-or-coverage.
func TestQuickConstContainment(t *testing.T) {
	f := func(a, b int64) bool {
		ca, cb := Const(iv(a)), Const(iv(b))
		return ca.Contains(cb) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
