package punct

import (
	"testing"

	"pjoin/internal/value"
)

func keyPunct(t *testing.T, key int64) Punctuation {
	t.Helper()
	return MustKeyOnly(2, 0, Const(iv(key)))
}

func TestSetAddAssignsSequentialPIDs(t *testing.T) {
	s := NewSet()
	for i := int64(1); i <= 3; i++ {
		e, err := s.Add(keyPunct(t, i))
		if err != nil {
			t.Fatal(err)
		}
		if e.PID != PID(i) {
			t.Errorf("pid = %d, want %d", e.PID, i)
		}
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSetAddZeroPunctuation(t *testing.T) {
	if _, err := NewSet().Add(Punctuation{}); err == nil {
		t.Error("adding zero punctuation should error")
	}
}

func TestSetMatchAndFirstMatch(t *testing.T) {
	s := NewSet()
	e1, _ := s.Add(MustKeyOnly(2, 0, MustRange(iv(0), iv(10))))
	e2, _ := s.Add(MustKeyOnly(2, 0, MustRange(iv(0), iv(100))))
	tup := []value.Value{iv(5), value.Str("x")}
	if !s.SetMatch(tup) {
		t.Error("SetMatch should be true")
	}
	if got := s.FirstMatch(tup); got != e1 {
		t.Errorf("FirstMatch = %v, want first-arrived entry", got)
	}
	tup2 := []value.Value{iv(50), value.Str("x")}
	if got := s.FirstMatch(tup2); got != e2 {
		t.Errorf("FirstMatch = %v, want second entry", got)
	}
	tup3 := []value.Value{iv(500), value.Str("x")}
	if s.SetMatch(tup3) || s.FirstMatch(tup3) != nil {
		t.Error("no entry should match 500")
	}
}

func TestSetRemoveAndGet(t *testing.T) {
	s := NewSet()
	e1, _ := s.Add(keyPunct(t, 1))
	e2, _ := s.Add(keyPunct(t, 2))
	if s.Get(e1.PID) != e1 || s.Get(e2.PID) != e2 {
		t.Fatal("Get broken")
	}
	pid1 := e1.PID // the entry is zeroed once it leaves the set
	if !remove(s, pid1) {
		t.Error("remove existing should be true")
	}
	if remove(s, pid1) {
		t.Error("double remove should be false")
	}
	if s.Get(pid1) != nil {
		t.Error("removed entry still gettable")
	}
	if e1.PID != NoPID || !e1.P.IsZero() {
		t.Errorf("removed entry left as pid %d %s, want zeroed", e1.PID, e1.P)
	}
	if s.Len() != 1 || s.Entries()[0] != e2 {
		t.Error("remaining entries wrong")
	}
	// PIDs must not be reused after removal.
	e3, _ := s.Add(keyPunct(t, 3))
	if e3.PID <= e2.PID {
		t.Errorf("pid reuse: %d after %d", e3.PID, e2.PID)
	}
}

// remove takes the entry with the given pid out of s as retirement does,
// and reports whether it was there.
func remove(s *Set, pid PID) bool {
	e := s.Get(pid)
	if e != nil {
		s.drop(e)
	}
	return e != nil
}

func TestUnindexedAndPropagable(t *testing.T) {
	s := NewSet()
	e1, _ := s.Add(keyPunct(t, 1))
	e2, _ := s.Add(keyPunct(t, 2))
	if got := s.Unindexed(); len(got) != 2 {
		t.Fatalf("Unindexed = %d entries", len(got))
	}
	e1.Count = 2
	s.MarkIndexed(e1)
	s.MarkIndexed(e2)
	if got := s.Unindexed(); len(got) != 0 {
		t.Errorf("Unindexed after indexing = %d entries", len(got))
	}
	prop := s.Propagable(false)
	if len(prop) != 1 || prop[0] != e2 {
		t.Errorf("Propagable = %v, want only count-0 entry", prop)
	}
	// An unindexed count-0 entry must not be propagable: its count is
	// meaningless until index build has scanned the state for it.
	e3, _ := s.Add(keyPunct(t, 3))
	_ = e3
	if got := s.Propagable(false); len(got) != 1 {
		t.Errorf("unindexed entry leaked into Propagable: %v", got)
	}
}

// TestPropagableWaitsForEarlierOverlap: a tuple counts toward the first
// punctuation it matches, so a later punctuation that overlaps an
// earlier one still counting tuples is not released on its own zero
// count — unless no result can follow (final). Disjoint ones are. Keyed,
// the constants find their earlier overlaps through the key index, the
// non-exhaustive entry through its partial list.
func TestPropagableWaitsForEarlierOverlap(t *testing.T) {
	for _, keyed := range []bool{true, false} {
		s := NewSet()
		if keyed {
			s = NewKeyedSet(0, false)
		}
		c, _ := s.Add(keyPunct(t, 1))
		r, _ := s.Add(MustKeyOnly(2, 0, MustRange(iv(0), iv(7))))
		d, _ := s.Add(keyPunct(t, 9))
		c2, _ := s.Add(keyPunct(t, 1))
		k3, _ := s.Add(keyPunct(t, 3))
		for _, e := range s.Entries() {
			s.MarkIndexed(e)
		}
		check := func(what string, final bool, want ...*Entry) {
			t.Helper()
			got := s.Propagable(final)
			ok := len(got) == len(want)
			for i := 0; ok && i < len(got); i++ {
				ok = got[i] == want[i]
			}
			if !ok {
				t.Errorf("keyed=%v, %s: Propagable(%v) = %v, want %v", keyed, what, final, got, want)
			}
		}
		c.Count++ // holds back the range containing it and its repeat
		check("<1, *> holds a tuple", false, d, k3)
		s.Unmatch(c.PID)
		r.Count++ // the range holds back the constants inside it
		check("the range holds a tuple", false, c, d)
		n, _ := s.Add(MustNew(Const(iv(1)), Const(value.Str("x"))))
		s.MarkIndexed(n)
		check("with a non-exhaustive entry", false, c, d)
		check("final", true, c, d, c2, k3, n)
		s.Unmatch(r.PID)
		check("all drained", false, c, r, d, c2, k3, n)
	}
}

// TestSetScratchLifetime pins what Unindexed, Propagable and PurgePlan
// promise about the slices they return: right until the next of those
// calls on the same set — Release in between included, which is how
// propagation uses Propagable, also when it retires entries — and
// costing no allocation once grown. Nor does a punctuation's way through
// the set: Add reuses the entry an earlier retirement zeroed.
func TestSetScratchLifetime(t *testing.T) {
	s := NewKeyedSet(0, false)
	var es []*Entry
	for k := int64(0); k < 4; k++ {
		e, _ := s.Add(keyPunct(t, k))
		es = append(es, e)
	}
	rng, _ := s.Add(MustKeyOnly(2, 0, MustRange(iv(10), iv(20))))
	es = append(es, rng)
	for _, e := range s.Unindexed() {
		s.MarkIndexed(e)
	}
	s.Applied(s.MaxPID())
	prop := s.Propagable(false)
	if len(prop) != 5 {
		t.Fatalf("Propagable = %d entries, want 5", len(prop))
	}
	for i, e := range prop { // release while ranging, as propagate does
		if e != es[i] {
			t.Fatalf("Propagable[%d] = pid %d, want pid %d", i, e.PID, es[i].PID)
		}
		s.Release(e)
	}
	if s.Len() != 0 || s.ClosedLen() != 2 {
		t.Fatalf("released constants 0..3 and [10 .. 20] left %s and %d intervals, want none and 2", s, s.ClosedLen())
	}

	// Two sets share nothing: one's call leaves the other's slice alone.
	a, b := NewKeyedSet(0, false), NewKeyedSet(0, false)
	ea, _ := a.Add(keyPunct(t, 1))
	b.Add(keyPunct(t, 2))
	ua := a.Unindexed()
	if ub := b.Unindexed(); len(ua) != 1 || ua[0] != ea || len(ub) != 1 {
		t.Errorf("Unindexed on one set disturbed another's result")
	}

	// Steady state of the punctuation path: nothing. One measured run of
	// 640 keeps AllocsPerRun from rounding a fraction of an object away.
	p := keyPunct(t, 7)
	const steps = 640
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < steps; i++ {
			e, _ := a.Add(p)
			direct, scan := a.PurgePlan(0, e.PID-1)
			if len(direct) != 1 || len(scan) != 0 {
				t.Fatalf("PurgePlan = %v, %v", direct, scan)
			}
			for _, u := range a.Unindexed() {
				a.MarkIndexed(u)
			}
			a.Applied(e.PID)
			for _, r := range a.Propagable(false) {
				a.Release(r)
			}
		}
	}) / steps
	if allocs != 0 {
		t.Errorf("add, plan, index, propagate, retire allocates %.4f objects, want 0", allocs)
	}
	if a.Len() != 0 || a.ClosedLen() != 2 {
		t.Errorf("%s and %d intervals left after %d repeats of one key, want none and 2 (keys 1 and 7)", a, a.ClosedLen(), steps)
	}
}

func TestVerifiedSetAcceptsDisjointAndNested(t *testing.T) {
	s := NewVerifiedSet(0)
	if _, err := s.Add(MustKeyOnly(2, 0, Const(iv(1)))); err != nil {
		t.Fatal(err)
	}
	// Disjoint constant: fine.
	if _, err := s.Add(MustKeyOnly(2, 0, Const(iv(2)))); err != nil {
		t.Errorf("disjoint constant rejected: %v", err)
	}
	// Superset range containing both earlier constants: fine.
	if _, err := s.Add(MustKeyOnly(2, 0, MustRange(iv(0), iv(10)))); err != nil {
		t.Errorf("containing range rejected: %v", err)
	}
}

func TestVerifiedSetRejectsPartialOverlap(t *testing.T) {
	s := NewVerifiedSet(0)
	if _, err := s.Add(MustKeyOnly(2, 0, MustRange(iv(0), iv(10)))); err != nil {
		t.Fatal(err)
	}
	// [5..20] overlaps [0..10] without containing it: violates §2.2.
	if _, err := s.Add(MustKeyOnly(2, 0, MustRange(iv(5), iv(20)))); err == nil {
		t.Error("partially overlapping punctuation accepted")
	}
	if s.Len() != 1 {
		t.Errorf("failed Add mutated the set: len=%d", s.Len())
	}
}

func TestVerifiedSetAttrOutOfRange(t *testing.T) {
	s := NewVerifiedSet(5)
	if _, err := s.Add(keyPunct(t, 1)); err == nil {
		t.Error("attr beyond punctuation width should error")
	}
}

func TestNewVerifiedSetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewVerifiedSet(-1)
}

func TestSetString(t *testing.T) {
	s := NewSet()
	s.Add(keyPunct(t, 1))
	if str := s.String(); str == "" || str == "{}" {
		t.Errorf("Set.String() = %q", str)
	}
}
