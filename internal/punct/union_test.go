package punct

import (
	"testing"

	"pjoin/internal/value"
)

func TestTryUnionTable(t *testing.T) {
	cases := []struct {
		name string
		a, b Pattern
		want Pattern
		ok   bool
	}{
		{"wildcard absorbs", Star(), Const(iv(1)), Star(), true},
		{"empty identity", None(), Const(iv(1)), Const(iv(1)), true},
		{"empty identity rhs", MustRange(iv(1), iv(3)), None(), MustRange(iv(1), iv(3)), true},
		{"equal consts", Const(iv(5)), Const(iv(5)), Const(iv(5)), true},
		{"adjacent ints", Const(iv(5)), Const(iv(6)), MustRange(iv(5), iv(6)), true},
		{"adjacent ints reversed", Const(iv(6)), Const(iv(5)), MustRange(iv(5), iv(6)), true},
		{"distant ints fail", Const(iv(1)), Const(iv(9)), Pattern{}, false},
		{"overlapping ranges", MustRange(iv(1), iv(5)), MustRange(iv(3), iv(9)), MustRange(iv(1), iv(9)), true},
		{"touching int ranges", MustRange(iv(1), iv(5)), MustRange(iv(6), iv(9)), MustRange(iv(1), iv(9)), true},
		{"gapped ranges fail", MustRange(iv(1), iv(3)), MustRange(iv(7), iv(9)), Pattern{}, false},
		{"const inside range", MustRange(iv(1), iv(5)), Const(iv(3)), MustRange(iv(1), iv(5)), true},
		{"const extends range", MustRange(iv(1), iv(5)), Const(iv(6)), MustRange(iv(1), iv(6)), true},
		{"const below range", Const(iv(0)), MustRange(iv(1), iv(5)), MustRange(iv(0), iv(5)), true},
		{"const gap from range fails", MustRange(iv(1), iv(5)), Const(iv(9)), Pattern{}, false},
		{"enum union fails", MustEnum(iv(1), iv(3)), MustEnum(iv(5), iv(7)), Pattern{}, false},
		{"dense enums fail", MustEnum(iv(1), iv(3)), MustEnum(iv(2), iv(4)), Pattern{}, false},
		{"enum plus stray const fails", MustEnum(iv(1), iv(5)), Const(iv(9)), Pattern{}, false},
		{"enum covers const", MustEnum(iv(1), iv(5)), Const(iv(5)), MustEnum(iv(1), iv(5)), true},
		{"enum covers range", MustEnum(iv(1), iv(2), iv(3)), MustRange(iv(2), iv(3)), MustEnum(iv(1), iv(2), iv(3)), true},
		{"range plus covered enum", MustRange(iv(1), iv(9)), MustEnum(iv(2), iv(5)), MustRange(iv(1), iv(9)), true},
		{"range plus stray enum fails", MustRange(iv(1), iv(4)), MustEnum(iv(2), iv(9)), Pattern{}, false},
		{"mixed kinds fail", Const(iv(1)), Const(value.Str("a")), Pattern{}, false},
		{"string ranges only overlap", MustRange(value.Str("a"), value.Str("f")), MustRange(value.Str("d"), value.Str("k")), MustRange(value.Str("a"), value.Str("k")), true},
		{"string ranges no adjacency", MustRange(value.Str("a"), value.Str("b")), MustRange(value.Str("c"), value.Str("d")), Pattern{}, false},
		{"float consts fail", Const(value.Float(1.5)), Const(value.Float(2.5)), Pattern{}, false},
		{"float ranges overlap", MustRange(value.Float(1.5), value.Float(3)), Const(value.Float(2.5)), MustRange(value.Float(1.5), value.Float(3)), true},
	}
	for _, c := range cases {
		got, ok := c.a.TryUnion(c.b)
		if ok != c.ok {
			t.Errorf("%s: ok = %v, want %v", c.name, ok, c.ok)
			continue
		}
		if ok && !got.Equal(c.want) {
			t.Errorf("%s: union = %v, want %v", c.name, got, c.want)
		}
		// Union must be symmetric.
		got2, ok2 := c.b.TryUnion(c.a)
		if ok2 != ok || (ok && !got2.Equal(got)) {
			t.Errorf("%s: not symmetric: %v/%v vs %v/%v", c.name, got, ok, got2, ok2)
		}
	}
}

// Union semantics: v matches the union iff it matches either input.
func TestTryUnionSemantics(t *testing.T) {
	pats := samplePatterns()
	probes := []value.Value{}
	for i := int64(-2); i <= 35; i++ {
		probes = append(probes, iv(i))
	}
	for _, a := range pats {
		for _, b := range pats {
			u, ok := a.TryUnion(b)
			if !ok {
				continue
			}
			for _, v := range probes {
				want := a.Matches(v) || b.Matches(v)
				if got := u.Matches(v); got != want {
					t.Fatalf("(%v ∪ %v)=%v: Matches(%v)=%v want %v", a, b, u, v, got, want)
				}
			}
		}
	}
}

// TestTryUnionEnumCap: enumerations neither of which covers the other
// have no union, however many members they have: a union never becomes
// one enormous enumeration.
func TestTryUnionEnumCap(t *testing.T) {
	var vs1, vs2 []value.Value
	for i := int64(0); i < 40; i++ {
		vs1 = append(vs1, iv(i*10))
		vs2 = append(vs2, iv(i*10+5))
	}
	a := MustEnum(vs1...)
	b := MustEnum(vs2...)
	if _, ok := a.TryUnion(b); ok {
		t.Error("an enumeration union should be refused")
	}
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
	if s.Len() != 1 {
		t.Fatalf("set len = %d", s.Len())
	}
	e := s.Entries()[0]
	if !e.P.PatternAt(0).Equal(MustRange(iv(0), iv(9))) || e.PID != 10 {
		t.Errorf("merged entry = pid %d %v, want the last pid over [0 .. 9]", e.PID, e.P)
	}
	// Matching still works through the keyed index.
	for k := int64(0); k < 10; k++ {
		if !s.SetMatchAttr(0, iv(k)) {
			t.Errorf("key %d lost after coalescing", k)
		}
	}
	if s.SetMatchAttr(0, iv(10)) {
		t.Error("coalescing over-promised")
	}
}

// TestSetCompactSkipsIndexedEntries: an entry that still owes something
// — tuples it counts, a release, or the opposite purge's application —
// stays as it is, and so does its neighbour.
func TestSetCompactSkipsIndexedEntries(t *testing.T) {
	s := NewKeyedSet(0, false)
	e1, _ := s.Add(MustKeyOnly(2, 0, Const(iv(1))))
	e1.Count = 3
	s.MarkIndexed(e1)
	e2, _ := s.Add(MustKeyOnly(2, 0, Const(iv(2))))
	e3, _ := s.Add(MustKeyOnly(2, 0, Const(iv(3))))
	s.MarkIndexed(e3)
	s.Applied(e3.PID)
	s.Release(e3) // released and applied: it owes nothing, but no neighbour does
	e4, _ := s.Add(MustKeyOnly(2, 0, Const(iv(4))))
	s.Release(e4) // released, not applied
	if s.Len() != 4 {
		t.Errorf("len = %d, want 4: %s", s.Len(), s)
	}
	s.Unmatch(e1.PID)
	s.Unmatch(e1.PID)
	s.Unmatch(e1.PID)
	s.Release(e1)
	s.Release(e2)
	s.Applied(e4.PID) // now nothing is owed
	if s.String() != "{4:<[1 .. 4], *>#0}" {
		t.Errorf("after every debt is paid: %s", s)
	}
}

func TestSetCompactRespectsOtherPatterns(t *testing.T) {
	s := NewKeyedSet(0, false)
	// Key-adjacent constants that are not exhaustive on the key stay.
	s.Add(MustNew(Const(iv(1)), Const(iv(100))))
	s.Add(MustNew(Const(iv(2)), Const(iv(100))))
	// Exhaustive ones of different widths do not merge.
	s.Add(MustKeyOnly(2, 0, Const(iv(1))))
	s.Add(MustKeyOnly(3, 0, Const(iv(2))))
	retireAll(s)
	if s.Len() != 4 {
		t.Errorf("merged punctuations with differing other patterns: %s", s)
	}
	// Same width, exhaustive: merge.
	b, _ := s.Add(MustKeyOnly(2, 0, Const(iv(2))))
	s.Applied(b.PID)
	if s.Len() != 4 || !s.Get(b.PID).P.PatternAt(0).Equal(MustRange(iv(1), iv(2))) {
		t.Errorf("merge of <1, *> and <2, *> missing: %s", s)
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
			t.Errorf("key %d: %v -> %v after coalescing", k, before[k], got)
		}
	}
	if s.Len() != 4 {
		t.Errorf("len = %d, want 4 runs: %s", s.Len(), s)
	}
}

// TestVerifiedAddAcrossCoalescedRange: released constants 1, 2 and 3
// coalesce into [1 .. 3]; a range [3 .. 5] nests with or avoids each of
// them, so a verified set accepts it although it straddles the union's
// end. An overlap with a range as it arrived is still refused.
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
	if s.String() != "{3:<[1 .. 3], *>#0}" {
		t.Fatalf("constants did not coalesce: %s", s)
	}
	if _, err := s.Add(MustKeyOnly(2, 0, MustRange(iv(3), iv(5)))); err != nil {
		t.Errorf("verified Add of [3 .. 5] after the union [1 .. 3]: %v", err)
	}
	if _, err := s.Add(MustKeyOnly(2, 0, MustRange(iv(5), iv(7)))); err == nil {
		t.Error("[5 .. 7] overlaps [3 .. 5] without nesting and was accepted")
	}
}
