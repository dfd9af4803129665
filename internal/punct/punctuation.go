package punct

import (
	"fmt"
	"strings"

	"pjoin/internal/value"
)

// Punctuation is an ordered set of patterns, one per attribute of the
// tuples in the stream it punctuates (§2.2). A tuple t matches
// punctuation p — match(t, p) — when every attribute value of t matches
// the pattern at the same position. The semantics promise that no tuple
// arriving after p in its stream matches p.
type Punctuation struct {
	patterns []Pattern
}

// New builds a punctuation from its per-attribute patterns. At least one
// pattern is required: a zero-width punctuation has no meaning.
func New(patterns ...Pattern) (Punctuation, error) {
	if len(patterns) == 0 {
		return Punctuation{}, fmt.Errorf("punct: punctuation needs at least one pattern")
	}
	ps := make([]Pattern, len(patterns))
	copy(ps, patterns)
	return Punctuation{patterns: ps}, nil
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
	ps := make([]Pattern, width)
	for i := range ps {
		ps[i] = Star()
	}
	ps[attr] = pat
	return Punctuation{patterns: ps}, nil
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
// schema. The result owns its pattern slice, the one thing Widen
// allocates.
func (p Punctuation) Widen(width, off int) (Punctuation, error) {
	if p.IsZero() || off < 0 || off+len(p.patterns) > width {
		return Punctuation{}, fmt.Errorf("punct: cannot widen %s to width %d at offset %d", p, width, off)
	}
	ps := make([]Pattern, width) // the zero Pattern is the wildcard
	copy(ps[off:], p.patterns)
	return Punctuation{patterns: ps}, nil
}

// IsZero reports whether p is the zero Punctuation (no patterns).
func (p Punctuation) IsZero() bool { return p.patterns == nil }

// Width returns the number of attribute patterns.
func (p Punctuation) Width() int { return len(p.patterns) }

// PatternAt returns the pattern for attribute i.
func (p Punctuation) PatternAt(i int) Pattern { return p.patterns[i] }

// Matches implements match(t, p) for a tuple given as its attribute
// values. A tuple of different width never matches.
//
//pjoin:hotpath
func (p Punctuation) Matches(attrs []value.Value) bool {
	if len(attrs) != len(p.patterns) {
		return false
	}
	for i, pat := range p.patterns {
		if !pat.Matches(attrs[i]) {
			return false
		}
	}
	return true
}

// And returns the conjunction of two punctuations of equal width —
// "the 'and' of any two punctuations is also a punctuation" (§2.2).
func (p Punctuation) And(q Punctuation) (Punctuation, error) {
	if len(p.patterns) != len(q.patterns) {
		return Punctuation{}, fmt.Errorf("punct: and of widths %d and %d", len(p.patterns), len(q.patterns))
	}
	out := make([]Pattern, len(p.patterns))
	for i := range out {
		out[i] = p.patterns[i].And(q.patterns[i])
	}
	return Punctuation{patterns: out}, nil
}

// IsEmpty reports whether the punctuation can match no tuple at all, i.e.
// some attribute pattern is Empty. Empty punctuations carry no
// information and operators drop them.
func (p Punctuation) IsEmpty() bool {
	for _, pat := range p.patterns {
		if pat.Kind() == Empty {
			return true
		}
	}
	return len(p.patterns) == 0
}

// Equal reports whether the two punctuations have identical pattern lists.
func (p Punctuation) Equal(q Punctuation) bool {
	if len(p.patterns) != len(q.patterns) {
		return false
	}
	for i := range p.patterns {
		if !p.patterns[i].Equal(q.patterns[i]) {
			return false
		}
	}
	return true
}

// String renders the punctuation as `<p1, p2, ...>`.
func (p Punctuation) String() string {
	var b strings.Builder
	b.WriteByte('<')
	for i, pat := range p.patterns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(pat.String())
	}
	b.WriteByte('>')
	return b.String()
}
