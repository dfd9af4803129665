// Package punct implements the punctuation semantics of Tucker et al. as
// used by the PJoin paper (EDBT 2004, §2.2): a punctuation is an ordered
// set of patterns, one per tuple attribute, and promises that no tuple
// arriving after it will match it. Five pattern kinds are supported —
// wildcard, constant, range, enumeration list, and the empty pattern —
// and the conjunction ("and") of any two punctuations is again a
// punctuation.
package punct

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"pjoin/internal/value"
)

// PatternKind identifies one of the paper's five pattern kinds.
type PatternKind uint8

// The five pattern kinds of §2.2.
const (
	Wildcard PatternKind = iota // matches every value
	Constant                    // matches exactly one value
	Range                       // matches values in an inclusive [lo,hi] interval
	Enum                        // matches any value in a finite list
	Empty                       // matches nothing
)

var kindNames = [...]string{"wildcard", "constant", "range", "enum", "empty"}

// String returns the kind's name.
func (k PatternKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("PatternKind(%d)", uint8(k))
}

// Pattern is a predicate over a single attribute value. Patterns are
// immutable once constructed; constructors normalise so that semantically
// equal patterns are structurally equal:
//
//   - enumerations are sorted and deduplicated,
//   - a one-element enumeration becomes a Constant,
//   - a zero-element enumeration becomes Empty,
//   - a range with lo == hi becomes a Constant,
//   - an inverted range (lo > hi) becomes Empty.
//
// The zero Pattern is the wildcard, so a freshly allocated punctuation
// matches everything until patterns are assigned.
type Pattern struct {
	kind   PatternKind
	lo, hi value.Value   // Constant stores the value in lo; Range uses both
	set    []value.Value // Enum members, sorted ascending, deduplicated
}

// Star returns the wildcard pattern.
func Star() Pattern { return Pattern{kind: Wildcard} }

// None returns the empty pattern.
func None() Pattern { return Pattern{kind: Empty} }

// Const returns a constant pattern matching exactly v.
func Const(v value.Value) Pattern {
	if !v.IsValid() {
		panic("punct: Const with invalid value")
	}
	return Pattern{kind: Constant, lo: v}
}

// NewRange returns a range pattern matching lo <= v <= hi (inclusive).
// lo and hi must share an orderable kind. An inverted range normalises to
// Empty and a degenerate range (lo == hi) to a Constant.
func NewRange(lo, hi value.Value) (Pattern, error) {
	c, err := lo.Compare(hi)
	if err != nil {
		return Pattern{}, fmt.Errorf("punct: range bounds: %w", err)
	}
	return rangeOf(lo, hi, c), nil
}

// rangeOf is NewRange over bounds that compared as c.
func rangeOf(lo, hi value.Value, c int) Pattern {
	switch {
	case c > 0:
		return None()
	case c == 0:
		return Const(lo)
	default:
		return Pattern{kind: Range, lo: lo, hi: hi}
	}
}

// MustRange is NewRange that panics on error; for tests and literals.
func MustRange(lo, hi value.Value) Pattern {
	p, err := NewRange(lo, hi)
	if err != nil {
		panic(err)
	}
	return p
}

// NewEnum returns an enumeration pattern matching any of vs. All members
// must share one kind so the list can be kept sorted. Duplicates are
// removed; empty and singleton lists normalise to Empty and Constant.
func NewEnum(vs ...value.Value) (Pattern, error) {
	if len(vs) == 0 {
		return None(), nil
	}
	kind := vs[0].Kind()
	for _, v := range vs {
		if !v.IsValid() {
			return Pattern{}, fmt.Errorf("punct: enum with invalid value")
		}
		if v.Kind() != kind {
			return Pattern{}, fmt.Errorf("punct: enum mixes %s and %s values", kind, v.Kind())
		}
	}
	sorted := make([]value.Value, len(vs))
	copy(sorted, vs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	dedup := sorted[:1]
	for _, v := range sorted[1:] {
		if !v.Equal(dedup[len(dedup)-1]) {
			dedup = append(dedup, v)
		}
	}
	if len(dedup) == 1 {
		return Const(dedup[0]), nil
	}
	return Pattern{kind: Enum, set: dedup}, nil
}

// MustEnum is NewEnum that panics on error; for tests and literals.
func MustEnum(vs ...value.Value) Pattern {
	p, err := NewEnum(vs...)
	if err != nil {
		panic(err)
	}
	return p
}

// Kind reports the pattern kind.
func (p Pattern) Kind() PatternKind { return p.kind }

// ConstVal returns the value of a Constant pattern; it panics otherwise.
func (p Pattern) ConstVal() value.Value {
	if p.kind != Constant {
		panic("punct: ConstVal on " + p.kind.String() + " pattern")
	}
	return p.lo
}

// Bounds returns the inclusive bounds of a Range pattern; it panics
// otherwise.
func (p Pattern) Bounds() (lo, hi value.Value) {
	if p.kind != Range {
		panic("punct: Bounds on " + p.kind.String() + " pattern")
	}
	return p.lo, p.hi
}

// Members returns the sorted member list of an Enum pattern; it panics
// otherwise. The returned slice must not be modified.
func (p Pattern) Members() []value.Value {
	if p.kind != Enum {
		panic("punct: Members on " + p.kind.String() + " pattern")
	}
	return p.set
}

// Matches reports whether v satisfies the pattern. Values of a kind the
// pattern cannot describe (e.g. a string against an int range) do not
// match; they are not an error, mirroring predicate evaluation to false.
//
// The Enum case hand-rolls its binary search instead of calling
// sort.Search: Matches sits on the per-tuple purge/probe path and the
// sort.Search closure is a per-call allocation there.
//
//pjoin:hotpath
func (p Pattern) Matches(v value.Value) bool {
	switch p.kind {
	case Wildcard:
		return true
	case Empty:
		return false
	case Constant:
		return v.Equal(p.lo)
	case Range:
		cl, err := p.lo.Compare(v)
		if err != nil || cl > 0 {
			return false
		}
		ch, err := v.Compare(p.hi)
		return err == nil && ch <= 0
	case Enum:
		lo, hi := 0, len(p.set)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if p.set[mid].Less(v) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo < len(p.set) && p.set[lo].Equal(v)
	default:
		return false
	}
}

// And returns the conjunction of p and q: the pattern matching exactly the
// values both match. The result is always well-defined (the "and" of two
// punctuation patterns is a pattern, §2.2); incompatible combinations
// normalise to Empty. Range∧Range across different value kinds is Empty
// because no single value can satisfy both.
func (p Pattern) And(q Pattern) Pattern {
	// Order so the simpler kind is on the left where convenient.
	if p.kind == Empty || q.kind == Empty {
		return None()
	}
	if p.kind == Wildcard {
		return q
	}
	if q.kind == Wildcard {
		return p
	}
	if q.kind == Constant && p.kind != Constant {
		p, q = q, p
	}
	switch p.kind {
	case Constant:
		if q.Matches(p.lo) {
			return p
		}
		return None()
	case Range:
		switch q.kind {
		case Range:
			lo, hi := p.lo, p.hi
			if c, err := q.lo.Compare(lo); err != nil {
				return None()
			} else if c > 0 {
				lo = q.lo
			}
			if c, err := q.hi.Compare(hi); err != nil {
				return None()
			} else if c < 0 {
				hi = q.hi
			}
			c, err := lo.Compare(hi)
			if err != nil {
				return None()
			}
			return rangeOf(lo, hi, c)
		case Enum:
			return filterEnum(q.set, p.Matches)
		}
	case Enum: // q is a range or an enumeration
		return filterEnum(p.set, q.Matches)
	}
	return None()
}

// filterEnum builds the normalised pattern over the members of set that
// satisfy keep. set is already sorted and deduplicated, so the result can
// be assembled directly.
func filterEnum(set []value.Value, keep func(value.Value) bool) Pattern {
	var out []value.Value
	for _, v := range set {
		if keep(v) {
			out = append(out, v)
		}
	}
	switch len(out) {
	case 0:
		return None()
	case 1:
		return Const(out[0])
	default:
		return Pattern{kind: Enum, set: out}
	}
}

// Equal reports semantic equality. Because constructors normalise,
// structural comparison suffices.
func (p Pattern) Equal(q Pattern) bool {
	if p.kind != q.kind {
		return false
	}
	switch p.kind {
	case Wildcard, Empty:
		return true
	case Constant:
		return p.lo.Equal(q.lo)
	case Range:
		return p.lo.Equal(q.lo) && p.hi.Equal(q.hi)
	case Enum:
		return slices.EqualFunc(p.set, q.set, value.Value.Equal)
	default:
		return false
	}
}

// Contains reports whether every value matching q also matches p
// (pattern subsumption: q ⊆ p). It is exact for all kind combinations
// except Wildcard ⊆ Range/Enum, which is correctly false, and is used to
// verify the paper's nested-or-disjoint assumption on the join attribute.
func (p Pattern) Contains(q Pattern) bool {
	if p.kind == Wildcard || q.kind == Empty {
		return true
	}
	if q.kind == Wildcard {
		return false // p is not wildcard here, so it excludes some value
	}
	switch q.kind {
	case Constant:
		return p.Matches(q.lo)
	case Range:
		switch p.kind {
		case Range:
			cl, err1 := p.lo.Compare(q.lo)
			ch, err2 := q.hi.Compare(p.hi)
			return err1 == nil && err2 == nil && cl <= 0 && ch <= 0
		default:
			// A finite pattern can contain a range only over a discrete
			// kind; approximate by checking the endpoints and, for ints,
			// every member in between via the enum itself.
			if p.kind == Enum && q.lo.Kind() == value.KindInt {
				return enumCoversIntRange(p.set, q.lo.IntVal(), q.hi.IntVal())
			}
			return false
		}
	case Enum:
		for _, v := range q.set {
			if !p.Matches(v) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// enumCoversIntRange reports whether the sorted member set includes every
// integer in [lo,hi].
func enumCoversIntRange(set []value.Value, lo, hi int64) bool {
	if hi < lo {
		return true
	}
	span := uint64(hi-lo) + 1
	if span > uint64(len(set)) {
		return false
	}
	i := sort.Search(len(set), func(i int) bool { return !set[i].Less(value.Int(lo)) })
	for want := lo; want <= hi; want++ {
		if i >= len(set) || set[i].Kind() != value.KindInt || set[i].IntVal() != want {
			return false
		}
		i++
	}
	return true
}

// Disjoint reports whether p and q share no matching value.
func (p Pattern) Disjoint(q Pattern) bool { return p.And(q).kind == Empty }

// String renders the pattern in punctuation syntax: `*` for wildcard,
// a value literal for constants, `[lo..hi]` for ranges, `{a, b}` for
// enumerations and `{}` for empty. Parse reverses it.
func (p Pattern) String() string {
	switch p.kind {
	case Wildcard:
		return "*"
	case Empty:
		return "{}"
	case Constant:
		return p.lo.String()
	case Range:
		return "[" + p.lo.String() + " .. " + p.hi.String() + "]"
	case Enum:
		members := make([]string, len(p.set))
		for i, v := range p.set {
			members[i] = v.String()
		}
		return "{" + strings.Join(members, ", ") + "}"
	default:
		return "<bad pattern>"
	}
}
