package punct

import (
	"testing"
)

func TestKeyedSetConstLookup(t *testing.T) {
	s := NewKeyedSet(0, false)
	e5, _ := s.Add(MustKeyOnly(2, 0, Const(iv(5))))
	e7, _ := s.Add(MustKeyOnly(2, 0, Const(iv(7))))
	if got := s.FirstMatchAttr(0, iv(5)); got != e5 {
		t.Errorf("FirstMatchAttr(5) = %v", got)
	}
	if got := s.FirstMatchAttr(0, iv(7)); got != e7 {
		t.Errorf("FirstMatchAttr(7) = %v", got)
	}
	if s.SetMatchAttr(0, iv(6)) {
		t.Error("6 should not match")
	}
}

func TestKeyedSetMixedPatterns(t *testing.T) {
	s := NewKeyedSet(0, false)
	eRange, _ := s.Add(MustKeyOnly(2, 0, MustRange(iv(0), iv(100))))
	eConst, _ := s.Add(MustKeyOnly(2, 0, Const(iv(50))))
	// 50 matches both; the range arrived first so it wins.
	if got := s.FirstMatchAttr(0, iv(50)); got != eRange {
		t.Errorf("FirstMatchAttr(50) = pid %d, want range entry", got.PID)
	}
	// 200 matches neither.
	if s.SetMatchAttr(0, iv(200)) {
		t.Error("200 should not match")
	}
	// Constant arriving before a covering range: constant wins for its key.
	s2 := NewKeyedSet(0, false)
	c, _ := s2.Add(MustKeyOnly(2, 0, Const(iv(50))))
	s2.Add(MustKeyOnly(2, 0, MustRange(iv(0), iv(100))))
	if got := s2.FirstMatchAttr(0, iv(50)); got != c {
		t.Errorf("earliest arrival should win, got pid %d", got.PID)
	}
	_ = eConst
}

func TestKeyedSetRemoveMaintainsIndex(t *testing.T) {
	s := NewKeyedSet(0, false)
	e1, _ := s.Add(MustKeyOnly(2, 0, Const(iv(1))))
	e2, _ := s.Add(MustKeyOnly(2, 0, Const(iv(1)))) // duplicate key, later pid
	r, _ := s.Add(MustKeyOnly(2, 0, MustRange(iv(10), iv(20))))
	if got := s.FirstMatchAttr(0, iv(1)); got != e1 {
		t.Fatalf("first = pid %d", got.PID)
	}
	remove(s, e1.PID)
	if got := s.FirstMatchAttr(0, iv(1)); got != e2 {
		t.Errorf("after remove, first = %v, want second const", got)
	}
	remove(s, e2.PID)
	if s.SetMatchAttr(0, iv(1)) {
		t.Error("key 1 should be gone")
	}
	remove(s, r.PID)
	if s.SetMatchAttr(0, iv(15)) {
		t.Error("range should be gone")
	}
}

// TestKeyedSetRepeatedKey removes the entries of one repeated constant
// in every order: whichever are left, the earliest-arrived answers, as in
// an unkeyed set.
func TestKeyedSetRepeatedKey(t *testing.T) {
	orders := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, order := range orders {
		keyed, plain := NewKeyedSet(0, false), NewSet()
		var pids []PID
		for i := 0; i < 3; i++ {
			e, _ := keyed.Add(keyPunct(t, 1))
			plain.Add(keyPunct(t, 1))
			pids = append(pids, e.PID)
		}
		keyed.Add(keyPunct(t, 2))
		plain.Add(keyPunct(t, 2))
		for _, i := range order {
			if k, p := keyed.FirstMatchAttr(0, iv(1)), plain.FirstMatchAttr(0, iv(1)); k == nil || k.PID != p.PID {
				t.Fatalf("order %v before removing entry %d: keyed %v, plain pid %d", order, i, k, p.PID)
			}
			remove(keyed, pids[i])
			remove(plain, pids[i])
		}
		if keyed.SetMatchAttr(0, iv(1)) {
			t.Errorf("order %v: key 1 still matches after its three entries left", order)
		}
		if !keyed.SetMatchAttr(0, iv(2)) {
			t.Errorf("order %v: key 2 lost", order)
		}
	}
}

func TestKeyedSetNonKeyAttrFallsBack(t *testing.T) {
	s := NewKeyedSet(0, false)
	s.Add(MustNew(Star(), Const(iv(9))))
	if !s.SetMatchAttr(1, iv(9)) {
		t.Error("non-key attribute lookup should still work")
	}
	if s.SetMatchAttr(1, iv(8)) {
		t.Error("non-key attribute lookup false positive")
	}
}

func TestKeyedSetAgreesWithLinear(t *testing.T) {
	keyed := NewKeyedSet(0, false)
	plain := NewSet()
	pats := []Pattern{
		Const(iv(3)), Const(iv(8)), MustRange(iv(10), iv(20)),
		MustEnum(iv(30), iv(40)), Const(iv(15)),
	}
	for _, p := range pats {
		kp := MustKeyOnly(2, 0, p)
		keyed.Add(kp)
		plain.Add(kp)
	}
	for k := int64(0); k < 50; k++ {
		kg, pg := keyed.FirstMatchAttr(0, iv(k)), plain.FirstMatchAttr(0, iv(k))
		switch {
		case kg == nil && pg == nil:
		case kg == nil || pg == nil:
			t.Errorf("key %d: keyed=%v plain=%v", k, kg, pg)
		case kg.PID != pg.PID:
			t.Errorf("key %d: keyed pid %d, plain pid %d", k, kg.PID, pg.PID)
		}
	}
}

func TestKeyedSetNarrowPunctuation(t *testing.T) {
	s := NewKeyedSet(3, false)
	// Punctuation narrower than the key attribute: goes to the
	// non-constant list, never matches on the key attribute.
	if _, err := s.Add(MustNew(Const(iv(1)))); err != nil {
		t.Fatal(err)
	}
	if s.SetMatchAttr(3, iv(1)) {
		t.Error("narrow punctuation must not match on missing attribute")
	}
}

// A punctuation that constrains OTHER attributes makes no exhaustion
// promise about the queried attribute: <*, c> must not license purging
// by attribute 0, even though its attribute-0 pattern (wildcard)
// "matches" every value. This is the soundness condition cascaded joins
// rely on — an upstream join propagates punctuations that constrain only
// one side's columns.
func TestSetMatchAttrRequiresExhaustiveness(t *testing.T) {
	for _, keyed := range []bool{true, false} {
		var s *Set
		if keyed {
			s = NewKeyedSet(0, false)
		} else {
			s = NewSet()
		}
		// Constrains attribute 1 only: exhausts nothing on attribute 0.
		s.Add(MustNew(Star(), Const(iv(7))))
		if s.SetMatchAttr(0, iv(123)) {
			t.Errorf("keyed=%v: non-exhaustive punctuation licensed a purge", keyed)
		}
		// But it IS exhaustive on attribute 1.
		if !s.SetMatchAttr(1, iv(7)) {
			t.Errorf("keyed=%v: exhaustive-on-1 punctuation not found", keyed)
		}
		// A pure end-of-stream punctuation <*, *> exhausts everything.
		s2 := NewKeyedSet(0, false)
		s2.Add(MustNew(Star(), Star()))
		if !s2.SetMatchAttr(0, iv(5)) {
			t.Error("all-wildcard punctuation should exhaust every value")
		}
	}
}

func TestEntryExhaustiveOn(t *testing.T) {
	e := &Entry{P: MustNew(Const(iv(1)), Star())}
	if !exhaustiveOn(e.P, 0) {
		t.Error("keyed punctuation should be exhaustive on its key")
	}
	if exhaustiveOn(e.P, 5) {
		t.Error("attribute beyond width cannot be exhausted")
	}
	mixed := &Entry{P: MustNew(Const(iv(1)), Const(iv(2)))}
	if exhaustiveOn(mixed.P, 0) || exhaustiveOn(mixed.P, 1) {
		t.Error("multi-constraint punctuation exhausts no single attribute")
	}
}
