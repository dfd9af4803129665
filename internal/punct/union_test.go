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
		{"distant ints make enum", Const(iv(1)), Const(iv(9)), MustEnum(iv(1), iv(9)), true},
		{"overlapping ranges", MustRange(iv(1), iv(5)), MustRange(iv(3), iv(9)), MustRange(iv(1), iv(9)), true},
		{"touching int ranges", MustRange(iv(1), iv(5)), MustRange(iv(6), iv(9)), MustRange(iv(1), iv(9)), true},
		{"gapped ranges fail", MustRange(iv(1), iv(3)), MustRange(iv(7), iv(9)), Pattern{}, false},
		{"const inside range", MustRange(iv(1), iv(5)), Const(iv(3)), MustRange(iv(1), iv(5)), true},
		{"const extends range", MustRange(iv(1), iv(5)), Const(iv(6)), MustRange(iv(1), iv(6)), true},
		{"const below range", Const(iv(0)), MustRange(iv(1), iv(5)), MustRange(iv(0), iv(5)), true},
		{"const gap from range fails", MustRange(iv(1), iv(5)), Const(iv(9)), Pattern{}, false},
		{"enum union", MustEnum(iv(1), iv(3)), MustEnum(iv(5), iv(7)), MustEnum(iv(1), iv(3), iv(5), iv(7)), true},
		{"dense enum collapses to range", MustEnum(iv(1), iv(3)), MustEnum(iv(2), iv(4)), MustRange(iv(1), iv(4)), true},
		{"enum plus const", MustEnum(iv(1), iv(5)), Const(iv(9)), MustEnum(iv(1), iv(5), iv(9)), true},
		{"range plus covered enum", MustRange(iv(1), iv(9)), MustEnum(iv(2), iv(5)), MustRange(iv(1), iv(9)), true},
		{"range plus stray enum fails", MustRange(iv(1), iv(4)), MustEnum(iv(2), iv(9)), Pattern{}, false},
		{"mixed kinds fail", Const(iv(1)), Const(value.Str("a")), Pattern{}, false},
		{"string ranges only overlap", MustRange(value.Str("a"), value.Str("f")), MustRange(value.Str("d"), value.Str("k")), MustRange(value.Str("a"), value.Str("k")), true},
		{"string ranges no adjacency", MustRange(value.Str("a"), value.Str("b")), MustRange(value.Str("c"), value.Str("d")), Pattern{}, false},
		{"float consts enum", Const(value.Float(1.5)), Const(value.Float(2.5)), MustEnum(value.Float(1.5), value.Float(2.5)), true},
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

func TestTryUnionEnumCap(t *testing.T) {
	var vs1, vs2 []value.Value
	for i := int64(0); i < 40; i++ {
		vs1 = append(vs1, iv(i*10))
		vs2 = append(vs2, iv(i*10+5))
	}
	a := MustEnum(vs1...)
	b := MustEnum(vs2...)
	if _, ok := a.TryUnion(b); ok {
		t.Error("oversized enum union should be refused")
	}
}

func TestSetCompactMergesConstants(t *testing.T) {
	s := NewKeyedSet(0, false)
	for k := int64(0); k < 10; k++ {
		if _, err := s.Add(MustKeyOnly(2, 0, Const(iv(k)))); err != nil {
			t.Fatal(err)
		}
	}
	removed := s.Compact(0)
	if removed != 9 {
		t.Errorf("removed = %d, want 9", removed)
	}
	if s.Len() != 1 {
		t.Fatalf("set len = %d", s.Len())
	}
	e := s.Entries()[0]
	if !e.P.PatternAt(0).Equal(MustRange(iv(0), iv(9))) {
		t.Errorf("merged pattern = %v", e.P)
	}
	// Matching still works through the keyed index.
	for k := int64(0); k < 10; k++ {
		if !s.SetMatchAttr(0, iv(k)) {
			t.Errorf("key %d lost after compaction", k)
		}
	}
	if s.SetMatchAttr(0, iv(10)) {
		t.Error("compaction over-promised")
	}
}

func TestSetCompactSkipsIndexedEntries(t *testing.T) {
	s := NewKeyedSet(0, false)
	e1, _ := s.Add(MustKeyOnly(2, 0, Const(iv(1))))
	e1.Count = 3
	s.MarkIndexed(e1)
	s.Add(MustKeyOnly(2, 0, Const(iv(2))))
	if removed := s.Compact(0); removed != 0 {
		t.Errorf("compaction touched an indexed entry (removed %d)", removed)
	}
	if s.Len() != 2 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestSetCompactRespectsOtherPatterns(t *testing.T) {
	s := NewKeyedSet(0, false)
	// Same key-adjacent constants but DIFFERENT second patterns: no merge.
	s.Add(MustNew(Const(iv(1)), Const(iv(100))))
	s.Add(MustNew(Const(iv(2)), Const(iv(200))))
	if removed := s.Compact(0); removed != 0 {
		t.Errorf("merged punctuations with differing non-key patterns: %d", removed)
	}
	// Same second pattern: merge.
	s2 := NewKeyedSet(0, false)
	s2.Add(MustNew(Const(iv(1)), Const(iv(100))))
	b, _ := s2.Add(MustNew(Const(iv(2)), Const(iv(100))))
	if removed := s2.Compact(0); removed != 1 {
		t.Errorf("removed = %d, want 1", removed)
	}
	if b.PID != NoPID || !b.P.IsZero() {
		t.Errorf("merged-away entry left as pid %d %s, want zeroed", b.PID, b.P)
	}
}

func TestSetCompactPreservesSemantics(t *testing.T) {
	// Property: compaction never changes SetMatchAttr for any probe.
	s := NewKeyedSet(0, false)
	keys := []int64{1, 2, 3, 7, 8, 20, 21, 22, 40}
	for _, k := range keys {
		s.Add(MustKeyOnly(2, 0, Const(iv(k))))
	}
	before := map[int64]bool{}
	for k := int64(0); k < 50; k++ {
		before[k] = s.SetMatchAttr(0, iv(k))
	}
	s.Compact(0)
	for k := int64(0); k < 50; k++ {
		if got := s.SetMatchAttr(0, iv(k)); got != before[k] {
			t.Errorf("key %d: %v -> %v after compaction", k, before[k], got)
		}
	}
	if s.Len() >= len(keys) {
		t.Errorf("compaction did nothing: len = %d", s.Len())
	}
}
