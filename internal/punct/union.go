package punct

import (
	"slices"

	"pjoin/internal/value"
)

// TryUnion returns the one pattern matching exactly the values p or q
// matches, when a punctuation set may merge the two into it (see
// Set.Applied): the one that covers the other, or the range two
// constants or ranges of one ordered kind make when they overlap or
// touch (succ(hi) = lo, over ints and bools). Otherwise ok is false:
// ranges with a gap between them, or enumerations neither of which
// covers the other. (Contrast And/conjunction, which the paper defines;
// union is this repository's extension.)
func (p Pattern) TryUnion(q Pattern) (Pattern, bool) {
	switch {
	case p.Contains(q):
		return p, true
	case q.Contains(p):
		return q, true
	case !p.interval() || !q.interval() || !sameOrderedKind(p.lo, q.lo):
		return Pattern{}, false
	}
	plo, phi := p.ends()
	qlo, qhi := q.ends()
	if qlo.Less(plo) {
		plo, phi, qlo, qhi = qlo, qhi, plo, phi
	}
	if phi.Less(qlo) && !adjacent(phi, qlo) {
		return Pattern{}, false
	}
	if phi.Less(qhi) {
		phi = qhi
	}
	return Pattern{kind: Range, lo: plo, hi: phi}, true // neither covers the other, so plo < phi
}

func (p Pattern) interval() bool { return p.kind == Constant || p.kind == Range }

// ends returns an interval's bounds; a constant's are its value.
func (p Pattern) ends() (lo, hi value.Value) {
	if p.kind == Constant {
		return p.lo, p.lo
	}
	return p.lo, p.hi
}

func sameOrderedKind(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	_, err := a.Compare(b)
	return err == nil
}

// adjacent reports whether hi immediately follows lo in a discrete
// domain (ints, bools): succ(lo) == hi.
func adjacent(lo, hi value.Value) bool {
	s, ok := lo.Succ()
	return ok && s.Equal(hi)
}

// owesNothing reports whether e can retire (see Applied).
func (s *Set) owesNothing(e *Entry) bool {
	return e.Count == 0 && (e.Propagated || s.NoRelease) && e.PID <= s.applied
}

// settle retires e if it owes nothing: it merges e with the earliest
// entry it can merge with (see Applied) until there is none. Between
// calls no two such entries can merge, so of a grown pattern's
// neighbours only e's own are new: the constants e merges with are looked
// up once, through the key index, and re-tried as it grows; the few
// non-constant entries are tried every time.
func (s *Set) settle(e *Entry) {
	e.recount = false
	if s.keyAttr < 0 || !s.owesNothing(e) || !exhaustiveOn(e.P, s.keyAttr) {
		return
	}
	s.near = s.nearConstants(s.near[:0], e)
	for {
		key := e.P.PatternAt(s.keyAttr)
		var f *Entry
		var u Pattern
		for _, c := range s.near {
			f, u = s.earlier(e, key, c, f, u)
		}
		for _, c := range s.nonConst {
			f, u = s.earlier(e, key, c, f, u)
		}
		if f == nil {
			break
		}
		if i := slices.Index(s.near, f); i >= 0 {
			s.near = slices.Delete(s.near, i, i+1)
		}
		e = s.merge(e, f, u)
	}
	clear(s.near)
}

// earlier returns c and the union of key with c's key pattern if c is
// not e, is as wide, owes nothing, is settled, arrived before best and
// merges; otherwise best and bu.
func (s *Set) earlier(e *Entry, key Pattern, c, best *Entry, bu Pattern) (*Entry, Pattern) {
	if c == e || best != nil && c.PID >= best.PID || c.P.width != e.P.width || c.recount || !s.owesNothing(c) {
		return best, bu
	}
	if u, ok := key.TryUnion(c.P.PatternAt(s.keyAttr)); ok {
		return c, u
	}
	return best, bu
}

// nearConstants appends the entries filed under a constant that e's key
// pattern may merge with: for a constant v those on v and its
// neighbours, for any other pattern every constant it merges with.
func (s *Set) nearConstants(dst []*Entry, e *Entry) []*Entry {
	key := e.P.PatternAt(s.keyAttr)
	if key.kind != Constant {
		for v, k := range s.constIdx {
			if _, ok := key.TryUnion(Const(v)); ok {
				dst = appendKeyEntries(dst, k)
			}
		}
		return dst
	}
	dst = appendKeyEntries(dst, s.constIdx[key.lo])
	if v, ok := key.lo.Pred(); ok {
		dst = appendKeyEntries(dst, s.constIdx[v])
	}
	if v, ok := key.lo.Succ(); ok {
		dst = appendKeyEntries(dst, s.constIdx[v])
	}
	return dst
}

func appendKeyEntries(dst []*Entry, k keyEntries) []*Entry {
	if k.first != nil {
		dst = append(dst, k.first)
	}
	return append(dst, k.more...)
}

// merge coalesces two entries that owe nothing into u. The later-arrived
// one survives with u as its key pattern, written into storage it owns:
// its own pattern slice may be shared with the punctuation it was
// released as (Widen views). The earlier one leaves the set, and its
// storage moves to a survivor that has none, so a steady stream of
// merges allocates nothing.
func (s *Set) merge(a, b *Entry, u Pattern) *Entry {
	if a.PID > b.PID {
		a, b = b, a
	}
	grown := a.grown || !u.Equal(a.P.PatternAt(s.keyAttr))
	s.drop(a)
	if !u.Equal(b.P.PatternAt(s.keyAttr)) {
		if b.own == nil {
			b.own, a.own = a.own, nil
		}
		s.dropFromIndex(b)
		b.own = append(b.own[:0], u)
		b.P = Punctuation{pats: b.own, off: int32(s.keyAttr), width: b.P.width}
		b.grown = grown
		s.addToIndex(b)
	}
	return b
}
