package punct

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pjoin/internal/value"
)

// canonical checks Closed's representation: intervals ascending, each
// with lo <= hi, disjoint, and no interval touching the next — the one
// form a set of closed values has, so two sets that close the same
// values hold the same intervals.
func canonical(c *Closed) error {
	if c.all && len(c.ivs) > 0 {
		return fmt.Errorf("closed everything and still holds %d intervals", len(c.ivs))
	}
	for i, iv := range c.ivs {
		if order(iv.lo, iv.hi) > 0 {
			return fmt.Errorf("interval %d = [%v, %v] is inverted", i, iv.lo, iv.hi)
		}
		if i == 0 {
			continue
		}
		prev := c.ivs[i-1]
		if next, ok := prev.hi.Succ(); order(prev.hi, iv.lo) >= 0 || ok && next.Equal(iv.lo) {
			return fmt.Errorf("intervals %d = [%v, %v] and %d = [%v, %v] overlap or touch", i-1, prev.lo, prev.hi, i, iv.lo, iv.hi)
		}
	}
	return nil
}

func closedOf(ps ...Pattern) *Closed {
	c := NewClosed(0)
	for _, p := range ps {
		c.Add(MustKeyOnly(1, 0, p))
	}
	return &c
}

func TestClosedTable(t *testing.T) {
	cases := []struct {
		name string
		a, b Pattern
		n    int // intervals held
	}{
		{"wildcard absorbs", Star(), Const(iv(1)), 1},
		{"empty adds nothing", None(), Const(iv(1)), 1},
		{"empty adds nothing to a range", MustRange(iv(1), iv(3)), None(), 1},
		{"equal consts", Const(iv(5)), Const(iv(5)), 1},
		{"adjacent ints", Const(iv(5)), Const(iv(6)), 1},
		{"adjacent ints reversed", Const(iv(6)), Const(iv(5)), 1},
		{"distant ints", Const(iv(1)), Const(iv(9)), 2},
		{"overlapping ranges", MustRange(iv(1), iv(5)), MustRange(iv(3), iv(9)), 1},
		{"touching int ranges", MustRange(iv(1), iv(5)), MustRange(iv(6), iv(9)), 1},
		{"gapped ranges", MustRange(iv(1), iv(3)), MustRange(iv(7), iv(9)), 2},
		{"const inside range", MustRange(iv(1), iv(5)), Const(iv(3)), 1},
		{"const extends range", MustRange(iv(1), iv(5)), Const(iv(6)), 1},
		{"const below range", Const(iv(0)), MustRange(iv(1), iv(5)), 1},
		{"const gap from range", MustRange(iv(1), iv(5)), Const(iv(9)), 2},
		{"enums go in as members", MustEnum(iv(1), iv(3)), MustEnum(iv(5), iv(7)), 4},
		{"dense enums coalesce", MustEnum(iv(1), iv(3)), MustEnum(iv(2), iv(4)), 1},
		{"enum members bridge ranges", MustRange(iv(1), iv(4)), MustEnum(iv(5), iv(9)), 2},
		{"range covers enum", MustRange(iv(1), iv(9)), MustEnum(iv(2), iv(5)), 1},
		{"bools touch", Const(value.Bool(false)), Const(value.Bool(true)), 1},
		{"kinds apart", Const(iv(1)), Const(value.Str("a")), 2},
		{"string ranges overlap", MustRange(value.Str("a"), value.Str("f")), MustRange(value.Str("d"), value.Str("k")), 1},
		{"strings have no successor", MustRange(value.Str("a"), value.Str("b")), MustRange(value.Str("c"), value.Str("d")), 2},
		{"float points stay points", Const(value.Float(1.5)), Const(value.Float(2.5)), 2},
		{"float range covers a point and every NaN", MustRange(value.Float(1.5), value.Float(3)), Const(value.Float(2.5)), 2},
		{"zeros stay apart", Const(value.Float(0)), Const(negZero), 2},
		{"a range ending at 0 covers -0", MustRange(value.Float(-1), value.Float(0)), Const(negZero), 2},
		{"a range starting at -0 covers 0", MustRange(negZero, value.Float(1)), Const(value.Float(0)), 2},
		{"NaN constants are points", Const(nan), Const(value.Float(1)), 2},
		{"a float range covers a NaN constant", Const(nan), MustRange(value.Float(1), value.Float(2)), 2},
		{"a shadowed enum member stays open", MustEnum(negZero, value.Float(0)), Const(value.Float(4)), 2},
	}
	var probes []value.Value
	for i := int64(-1); i <= 11; i++ {
		probes = append(probes, iv(i), value.Float(float64(i)/2))
	}
	for _, s := range []string{"a", "b", "bb", "c", "d", "e", "k", "l"} {
		probes = append(probes, value.Str(s))
	}
	probes = append(probes, value.Bool(false), value.Bool(true), negZero, nan, value.Float(math.Inf(-1)))
	for _, c := range cases {
		for _, ps := range [][2]Pattern{{c.a, c.b}, {c.b, c.a}} {
			cl := closedOf(ps[0], ps[1])
			if err := canonical(cl); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
			if cl.Len() != c.n {
				t.Errorf("%s: %v then %v hold %d intervals, want %d", c.name, ps[0], ps[1], cl.Len(), c.n)
			}
			for _, v := range probes {
				if got, want := cl.Has(v), ps[0].Matches(v) || ps[1].Matches(v); got != want {
					t.Errorf("%s: %v then %v: Has(%v) = %v, want %v", c.name, ps[0], ps[1], v, got, want)
				}
			}
		}
	}
}

// TestTryUnionSemantics: the union Closed keeps of two patterns closes
// v iff either pattern matches v, for every pair of sample patterns and
// in either order.
func TestTryUnionSemantics(t *testing.T) {
	pats := samplePatterns()
	var probes []value.Value
	for i := int64(-2); i <= 35; i++ {
		probes = append(probes, iv(i))
	}
	for _, s := range []string{"", "a", "m", "n", "z", "za"} {
		probes = append(probes, value.Str(s))
	}
	for _, a := range pats {
		for _, b := range pats {
			u := closedOf(a, b)
			for _, v := range probes {
				want := a.Matches(v) || b.Matches(v)
				if got := u.Has(v); got != want {
					t.Fatalf("(%v ∪ %v) = %v: Has(%v) = %v, want %v", a, b, u.ivs, v, got, want)
				}
			}
		}
	}
}

// TestClosedEnumGoesInAsMembers: an enumeration closes its members and
// nothing between them, however many it has; the members another
// enumeration fills in between coalesce with them.
func TestClosedEnumGoesInAsMembers(t *testing.T) {
	var evens, odds []value.Value
	for i := int64(0); i < 40; i++ {
		evens = append(evens, iv(4*i))
		odds = append(odds, iv(4*i+2))
	}
	c := closedOf(MustEnum(evens...), MustEnum(odds...))
	if c.Len() != 80 || c.Has(iv(1)) || !c.Has(iv(2)) {
		t.Fatalf("two spread enumerations: %d intervals, Has(1) %v, Has(2) %v; want 80, false, true", c.Len(), c.Has(iv(1)), c.Has(iv(2)))
	}
	for i := int64(0); i < 80; i++ {
		c.Add(MustKeyOnly(1, 0, Const(iv(2*i+1))))
	}
	if c.Len() != 1 || !c.Has(iv(159)) || c.Has(iv(160)) {
		t.Errorf("after the gaps closed: %d intervals, want one [0 .. 159]", c.Len())
	}
}

// nan is a float key Value.Equal tells apart from every value, as it
// does -0 (negZero) from 0.
var nan = value.Float(math.NaN())

// closedModelKinds are the key kinds TestClosedAgreesWithModel draws
// from: ints and bools have successors, floats and strings do not.
var closedModelKinds = []value.Kind{value.KindInt, value.KindBool, value.KindFloat, value.KindString}

// closedValue draws a value of kind k from a small domain: ints -1..10,
// floats 0..5.5 in halves and -0 and NaN, strings "a".."h".
func closedValue(r *rand.Rand, k value.Kind) value.Value {
	switch k {
	case value.KindBool:
		return value.Bool(r.Intn(2) == 0)
	case value.KindFloat:
		switch n := r.Intn(14); n {
		case 12:
			return negZero
		case 13:
			return nan
		default:
			return value.Float(float64(n) / 2)
		}
	case value.KindString:
		return value.Str(string(rune('a' + r.Intn(8))))
	default:
		return iv(int64(r.Intn(12) - 1))
	}
}

// closedPattern draws a constant, range, enumeration, wildcard or empty
// pattern over kind k.
func closedPattern(r *rand.Rand, k value.Kind) Pattern {
	switch n := r.Intn(100); {
	case n < 3:
		return Star()
	case n < 10:
		return None()
	case n < 50:
		return Const(closedValue(r, k))
	case n < 75:
		a, b := closedValue(r, k), closedValue(r, k)
		if b.Less(a) {
			a, b = b, a
		}
		return MustRange(a, b)
	default:
		vs := make([]value.Value, 1+r.Intn(4))
		for i := range vs {
			vs[i] = closedValue(r, k)
		}
		return MustEnum(vs...)
	}
}

// TestClosedAgreesWithModel adds seeded random punctuations to a Closed
// and holds Has, after every add, to a scan of the punctuations added
// with SetMatchAttr's semantics, over probes of every kind (the domains'
// values and values between them), and the intervals to their canonical
// form. Each seed keys one of four kinds on attribute 0 or 1; a
// punctuation is one to three wide (not exhaustive on an attribute it
// lacks), one in four also pins another attribute (not exhaustive at
// all), and one pattern in ten is of another kind than the key.
func TestClosedAgreesWithModel(t *testing.T) {
	var probes []value.Value
	for i := int64(-2); i <= 11; i++ {
		probes = append(probes, iv(i))
	}
	for i := -1; i <= 24; i++ {
		probes = append(probes, value.Float(float64(i)/4))
	}
	probes = append(probes, negZero, nan, value.Float(math.Inf(1)))
	for _, s := range []string{"", "a", "ab", "b", "c", "cz", "d", "e", "f", "g", "h", "i"} {
		probes = append(probes, value.Str(s))
	}
	probes = append(probes, value.Bool(false), value.Bool(true))
	for seed := int64(1); seed <= 400; seed++ {
		if err := runClosedModel(seed, probes); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func runClosedModel(seed int64, probes []value.Value) error {
	r := rand.New(rand.NewSource(seed))
	key := closedModelKinds[seed%4]
	attr := int(seed/4) % 2
	c := NewClosed(attr)
	var added []Punctuation
	for step := 0; step < 40; step++ {
		pats := make([]Pattern, 1+r.Intn(3))
		for i := range pats {
			pats[i] = Star()
		}
		if r.Intn(4) == 0 {
			pats[r.Intn(len(pats))] = Const(iv(1))
		}
		if attr < len(pats) {
			k := key
			if r.Intn(10) == 0 {
				k = closedModelKinds[r.Intn(len(closedModelKinds))]
			}
			pats[attr] = closedPattern(r, k)
		}
		p := MustNew(pats...)
		c.Add(p)
		added = append(added, p)
		if err := canonical(&c); err != nil {
			return fmt.Errorf("step %d, after %s: %v", step, p, err)
		}
		for _, v := range probes {
			want := false
			for _, q := range added {
				want = want || exhaustiveOn(q, attr) && q.PatternAt(attr).Matches(v)
			}
			if got := c.Has(v); got != want {
				return fmt.Errorf("step %d, after %s: Has(%v) = %v, the punctuations say %v (%d intervals)", step, p, v, got, want, c.Len())
			}
		}
	}
	return nil
}

// retireAll applies and (NoRelease) owes no release for every entry of
// s, so each retires as far as it can.
func retireAll(s *Set) {
	s.NoRelease = true
	s.Applied(s.MaxPID())
}

func TestSetCompactMergesConstants(t *testing.T) {
	s := NewKeyedSet(0, false)
	for k := int64(0); k < 10; k++ {
		if _, err := s.Add(MustKeyOnly(2, 0, Const(iv(k)))); err != nil {
			t.Fatal(err)
		}
	}
	retireAll(s)
	if s.Len() != 0 || s.ClosedLen() != 1 {
		t.Fatalf("set holds %d entries and %d intervals, want 0 and 1", s.Len(), s.ClosedLen())
	}
	// Matching still works, and answers with the latest retired pid.
	for k := int64(0); k < 10; k++ {
		if e := s.FirstMatchAttr(0, iv(k)); e == nil || !e.Retired() || e.PID != 10 {
			t.Errorf("key %d: FirstMatchAttr = %v, want the closed entry with pid 10", k, e)
		}
	}
	if s.SetMatchAttr(0, iv(10)) {
		t.Error("retirement over-promised")
	}
}

// TestSetCompactSkipsIndexedEntries: an entry that still owes something
// — tuples it counts, a release, or the opposite purge's application —
// stays as it is; one that owes nothing retires alone.
func TestSetCompactSkipsIndexedEntries(t *testing.T) {
	s := NewKeyedSet(0, false)
	e1, _ := s.Add(MustKeyOnly(2, 0, Const(iv(1))))
	e1.Count = 3
	s.MarkIndexed(e1)
	e2, _ := s.Add(MustKeyOnly(2, 0, Const(iv(2))))
	e3, _ := s.Add(MustKeyOnly(2, 0, Const(iv(3))))
	s.MarkIndexed(e3)
	s.Applied(e3.PID)
	s.Release(e3) // released and applied: it owes nothing
	e4, _ := s.Add(MustKeyOnly(2, 0, Const(iv(4))))
	s.Release(e4) // released, not applied
	if s.String() != "{1:<1, *>#3, 2:<2, *>#0, 4:<4, *>#0}" || s.ClosedLen() != 1 {
		t.Errorf("%s with %d intervals, want entries 1, 2 and 4 and one interval", s, s.ClosedLen())
	}
	s.Unmatch(e1.PID)
	s.Unmatch(e1.PID)
	s.Unmatch(e1.PID)
	s.Release(e1)
	s.Release(e2)
	s.Applied(e4.PID) // now nothing is owed
	if s.Len() != 0 || s.ClosedLen() != 1 || !s.SetMatchAttr(0, iv(4)) || s.SetMatchAttr(0, iv(5)) {
		t.Errorf("after every debt is paid: %s with %d intervals, want none and one [1 .. 4]", s, s.ClosedLen())
	}
}

func TestSetCompactRespectsOtherPatterns(t *testing.T) {
	s := NewKeyedSet(0, false)
	// Constants that are not exhaustive on the key retire and close
	// nothing.
	s.Add(MustNew(Const(iv(1)), Const(iv(100))))
	s.Add(MustNew(Const(iv(2)), Const(iv(100))))
	// Exhaustive ones retire while they are as wide as the first did.
	s.Add(MustKeyOnly(2, 0, Const(iv(1))))
	s.Add(MustKeyOnly(3, 0, Const(iv(2))))
	retireAll(s)
	if s.Len() != 1 || s.ClosedLen() != 1 {
		t.Errorf("%s with %d intervals, want the one that cannot retire and one interval", s, s.ClosedLen())
	}
	if e := s.FirstMatch([]value.Value{iv(2), iv(100)}); e != nil {
		t.Errorf("FirstMatch(2, 100) = %v, want nil: a retired <2, 100> closes nothing", e)
	}
	b, _ := s.Add(MustKeyOnly(2, 0, Const(iv(2))))
	s.Applied(b.PID)
	if s.Len() != 1 || s.ClosedLen() != 1 || !s.SetMatchAttr(0, iv(2)) {
		t.Errorf("<2, *> did not join <1, *>'s interval: %s with %d intervals", s, s.ClosedLen())
	}
	// A retired key answers for a tuple as wide as the retired entries only.
	if e := s.FirstMatch([]value.Value{iv(2), iv(0)}); e == nil || !e.Retired() {
		t.Errorf("FirstMatch(2, 0) = %v, want the closed entry", e)
	}
	if e := s.FirstMatch([]value.Value{iv(2), iv(0), iv(0)}); e == nil || e.Retired() {
		t.Errorf("FirstMatch(2, 0, 0) = %v, want the live <2, *, *>", e)
	}
}

func TestSetCompactPreservesSemantics(t *testing.T) {
	// Property: retirement never changes SetMatchAttr for any probe.
	s := NewKeyedSet(0, false)
	keys := []int64{1, 2, 3, 7, 8, 20, 21, 22, 40}
	for _, k := range keys {
		s.Add(MustKeyOnly(2, 0, Const(iv(k))))
	}
	before := map[int64]bool{}
	for k := int64(0); k < 50; k++ {
		before[k] = s.SetMatchAttr(0, iv(k))
	}
	retireAll(s)
	for k := int64(0); k < 50; k++ {
		if got := s.SetMatchAttr(0, iv(k)); got != before[k] {
			t.Errorf("key %d: %v -> %v after retirement", k, before[k], got)
		}
	}
	if s.Len() != 0 || s.ClosedLen() != 4 {
		t.Errorf("%d entries and %d intervals, want 0 and 4 runs", s.Len(), s.ClosedLen())
	}
}

// TestVerifiedAddAcrossCoalescedRange: released constants 1, 2 and 3
// retire into [1 .. 3]; a verified set checks only live entries, so it
// accepts a range [3 .. 5] that straddles the interval's end. An overlap
// with a live range is still refused.
func TestVerifiedAddAcrossCoalescedRange(t *testing.T) {
	s := NewVerifiedSet(0)
	for k := int64(1); k <= 3; k++ {
		e, err := s.Add(MustKeyOnly(2, 0, Const(iv(k))))
		if err != nil {
			t.Fatal(err)
		}
		s.MarkIndexed(e)
	}
	s.Applied(s.MaxPID())
	for _, e := range s.Propagable(false) {
		s.Release(e)
	}
	if s.Len() != 0 || s.ClosedLen() != 1 {
		t.Fatalf("constants did not retire into one interval: %s with %d intervals", s, s.ClosedLen())
	}
	if _, err := s.Add(MustKeyOnly(2, 0, MustRange(iv(3), iv(5)))); err != nil {
		t.Errorf("verified Add of [3 .. 5] after [1 .. 3] retired: %v", err)
	}
	if _, err := s.Add(MustKeyOnly(2, 0, MustRange(iv(5), iv(7)))); err == nil {
		t.Error("[5 .. 7] overlaps [3 .. 5] without nesting and was accepted")
	}
}
