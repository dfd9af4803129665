package punct

import (
	"fmt"
	"math"
	"strings"
	"unsafe"

	"pjoin/internal/value"
)

// Punctuation is an ordered set of patterns, one per attribute of the
// tuples in the stream it punctuates (§2.2). A tuple t matches
// punctuation p — match(t, p) — when every attribute value of t matches
// the pattern at the same position. The semantics promise that no tuple
// arriving after p in its stream matches p.
//
// A Punctuation is a window over a pattern array: its n patterns hold
// positions off, off+1, …, off+n-1 of a punctuation width attributes wide,
// and every position outside the window is the wildcard. New and Parse
// build a window over the whole width; Widen and Place return views that
// share their receiver's array. Nothing writes into a pattern array once a
// constructor has returned it, so the sharing is safe: code in this
// package builds a new array, never modifies one.
//
// The window is 16 bytes, a pointer to its first pattern and three
// int16, so a stream.Item carrying one is 48; a punctuation is at most
// math.MaxInt16 attributes wide. Compare punctuations with Equal: ==
// compares array addresses, and reflect.DeepEqual sees only the first
// pattern. Keep it to four fields, the most the compiler holds in
// registers (DESIGN.md §3).
type Punctuation struct {
	base  *Pattern // the window's first pattern; nil when n == 0
	n     int16
	off   int16
	width int16
}

// window builds the punctuation whose patterns at off, off+1, … are pats,
// width attributes wide; every constructor goes through it, with off and
// off+len(pats) at most width, so bounding width bounds the offsets.
func window(pats []Pattern, off, width int) (Punctuation, error) {
	if width > math.MaxInt16 {
		return Punctuation{}, fmt.Errorf("punct: width %d above %d", width, math.MaxInt16)
	}
	p := Punctuation{n: int16(len(pats)), off: int16(off), width: int16(width)}
	if len(pats) > 0 {
		p.base = &pats[0]
	}
	return p, nil
}

// pats returns the window's patterns. The unsafe.Slice is sound: window
// took base from a slice at least n long, so the n patterns lie in one
// array, which base keeps alive and nothing writes into.
func (p Punctuation) pats() []Pattern { return unsafe.Slice(p.base, p.n) }

// New builds a punctuation from its per-attribute patterns. At least one
// pattern is required: a zero-width punctuation has no meaning.
func New(patterns ...Pattern) (Punctuation, error) {
	if len(patterns) == 0 {
		return Punctuation{}, fmt.Errorf("punct: punctuation needs at least one pattern")
	}
	ps := make([]Pattern, len(patterns))
	copy(ps, patterns)
	return window(ps, 0, len(ps))
}

// MustNew is New that panics on error; for tests and literals.
func MustNew(patterns ...Pattern) Punctuation {
	p, err := New(patterns...)
	if err != nil {
		panic(err)
	}
	return p
}

// KeyOnly builds the common punctuation shape used on the join attribute:
// the pattern at position attr is pat and every other of width attributes
// is wildcard. For example KeyOnly(2, 0, Const(5)) over an Open(item_id,
// seller) stream is the paper's "no more tuples with item_id 5".
func KeyOnly(width, attr int, pat Pattern) (Punctuation, error) {
	if width <= 0 {
		return Punctuation{}, fmt.Errorf("punct: width must be positive, got %d", width)
	}
	if attr < 0 || attr >= width {
		return Punctuation{}, fmt.Errorf("punct: attribute %d out of range [0,%d)", attr, width)
	}
	return window([]Pattern{pat}, attr, width)
}

// MustKeyOnly is KeyOnly that panics on error.
func MustKeyOnly(width, attr int, pat Pattern) Punctuation {
	p, err := KeyOnly(width, attr, pat)
	if err != nil {
		panic(err)
	}
	return p
}

// Widen returns p's patterns placed at positions off, off+1, … of a
// punctuation width attributes wide whose every other pattern is the
// wildcard — the form a join gives an input punctuation over its output
// schema. The result is a view sharing p's pattern slice: Widen costs
// O(1) and allocates nothing, and widening a view composes the offsets.
func (p Punctuation) Widen(width, off int) (Punctuation, error) {
	if p.IsZero() || off < 0 || off+p.Width() > width {
		return Punctuation{}, fmt.Errorf("punct: cannot widen %s to width %d at offset %d", p, width, off)
	}
	return window(p.pats(), int(p.off)+off, width)
}

// Place returns the punctuation width attributes wide whose pattern at
// off is p's pattern at attr and whose every other pattern is the
// wildcard — the form an operator that keeps one input column gives an
// input punctuation over its output (group-by's group attribute). Like
// Widen it returns a view and allocates nothing.
func (p Punctuation) Place(attr, width, off int) (Punctuation, error) {
	if attr < 0 || attr >= p.Width() || off < 0 || off >= width {
		return Punctuation{}, fmt.Errorf("punct: cannot place attribute %d of %s at offset %d of width %d", attr, p, off, width)
	}
	pats := p.pats()
	if i := attr - int(p.off); i >= 0 && i < len(pats) {
		return window(pats[i:i+1], off, width)
	}
	return window(nil, off, width)
}

// IsZero reports whether p is the zero Punctuation (no patterns).
func (p Punctuation) IsZero() bool { return p.width == 0 }

// Width returns the number of attribute patterns.
func (p Punctuation) Width() int { return int(p.width) }

// PatternAt returns the pattern for attribute i: the zero Pattern, the
// wildcard, at a position of [0, Width) outside the window. It panics
// for i outside [0, Width).
func (p Punctuation) PatternAt(i int) Pattern {
	if uint(i) >= uint(p.width) {
		panic("punct: PatternAt out of range")
	}
	if i -= int(p.off); i >= 0 && i < int(p.n) {
		return p.pats()[i]
	}
	return Pattern{}
}

// Matches implements match(t, p) for a tuple given as its attribute
// values. A tuple of different width never matches. Only the window's
// patterns are tried: the wildcards around it match anything.
//
//pjoin:hotpath
func (p Punctuation) Matches(attrs []value.Value) bool {
	if len(attrs) != p.Width() {
		return false
	}
	attrs = attrs[p.off:]
	for i, pat := range p.pats() {
		if !pat.Matches(attrs[i]) {
			return false
		}
	}
	return true
}

// And returns the conjunction of two punctuations of equal width —
// "the 'and' of any two punctuations is also a punctuation" (§2.2).
func (p Punctuation) And(q Punctuation) (Punctuation, error) {
	if p.width != q.width {
		return Punctuation{}, fmt.Errorf("punct: and of widths %d and %d", p.width, q.width)
	}
	out := make([]Pattern, p.width)
	for i := range out {
		out[i] = p.PatternAt(i).And(q.PatternAt(i))
	}
	return window(out, 0, len(out))
}

// overlaps reports whether some tuple matches both punctuations. Only
// positions inside one of the two windows are tried: the wildcards
// outside both overlap.
func (p *Punctuation) overlaps(q *Punctuation) bool {
	if p.width != q.width {
		return false
	}
	lo := int(min(p.off, q.off))
	hi := max(int(p.off)+int(p.n), int(q.off)+int(q.n))
	for i := lo; i < hi; i++ {
		if p.PatternAt(i).Disjoint(q.PatternAt(i)) {
			return false
		}
	}
	return true
}

// IsEmpty reports whether the punctuation can match no tuple at all, i.e.
// some attribute pattern is Empty. Empty punctuations carry no
// information and operators drop them.
func (p Punctuation) IsEmpty() bool {
	for _, pat := range p.pats() {
		if pat.Kind() == Empty {
			return true
		}
	}
	return p.width == 0
}

// Equal reports whether the two punctuations have identical pattern lists.
func (p Punctuation) Equal(q Punctuation) bool {
	if p.width != q.width {
		return false
	}
	for i := 0; i < p.Width(); i++ {
		if !p.PatternAt(i).Equal(q.PatternAt(i)) {
			return false
		}
	}
	return true
}

// String renders the punctuation as `<p1, p2, ...>`.
func (p Punctuation) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i := 0; i < p.Width(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.PatternAt(i).String())
	}
	b.WriteByte('>')
	return b.String()
}
