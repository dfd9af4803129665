package punct

import (
	"cmp"
	"math"
	"slices"

	"pjoin/internal/value"
)

// Closed is the set of values a stream has closed on one attribute: it
// answers "is v closed on attr?" exactly as Set.SetMatchAttr does over the
// punctuations added to it, keeping only their union, as a sorted slice
// of disjoint inclusive intervals. A constant goes in as [v, v], a range
// as its bounds, an enumeration as its members; a wildcard closes
// everything, an empty pattern nothing, and a punctuation not exhaustive
// on the attribute is ignored. Intervals that overlap or touch (value.Succ
// of one's upper bound is the other's lower: ints and bools) coalesce on
// insert, so keys closed in order cost one interval; string and float
// constants stay points. A lookup is one binary search.
//
// Values order by kind first, so a pattern of another kind than the key
// never matches, as in Pattern.Matches. Floats order as cmp.Compare does
// (NaN lowest), ties broken by their bits, so -0 and 0 (and NaNs of
// different bits) are separate points, as Value.Equal tells them apart.
type Closed struct {
	attr int
	all  bool       // a wildcard closed every value
	ivs  []interval // ascending and disjoint; no interval touches the next
}

type interval struct{ lo, hi value.Value }

// The zeros and NaNs at the ends of their classes in Closed's order.
var (
	negZero = value.Float(math.Copysign(0, -1))
	nanLo   = value.Float(math.Float64frombits(0x7ff0000000000001))
	nanHi   = value.Float(math.Float64frombits(1<<64 - 1))
)

// NewClosed returns an empty set of values closed on attribute attr.
func NewClosed(attr int) Closed { return Closed{attr: attr} }

// Add closes the values p exhausts on the set's attribute, if p is
// exhaustive on it.
func (c *Closed) Add(p Punctuation) {
	if !exhaustiveOn(p, c.attr) {
		return
	}
	switch p := p.PatternAt(c.attr); p.kind {
	case Wildcard:
		c.all, c.ivs = true, nil
	case Constant:
		c.insert(p.lo, p.lo)
	case Range:
		lo, hi := p.lo, p.hi
		if lo.Kind() == value.KindFloat {
			// Matches compares floats: a zero bound takes in both
			// zeros, and every NaN is in every range.
			if lo.FloatVal() == 0 {
				lo = value.Float(0)
			}
			if hi.FloatVal() == 0 {
				hi = negZero
			}
			c.insert(nanLo, nanHi)
		}
		c.insert(lo, hi)
	case Enum:
		// Matches binary-searches the members by Less, then checks
		// bits: a NaN or a second zero among them can hide a member
		// from it, so only the members it finds go in.
		for _, v := range p.set {
			if p.Matches(v) {
				c.insert(v, v)
			}
		}
	}
}

// Has reports whether v is closed.
//
//pjoin:hotpath
func (c *Closed) Has(v value.Value) bool {
	if c.all {
		return true
	}
	i := c.search(v)
	return i < len(c.ivs) && order(c.ivs[i].lo, v) <= 0
}

// Len returns the number of intervals held; a set that closed
// everything holds one.
func (c *Closed) Len() int {
	if c.all {
		return 1
	}
	return len(c.ivs)
}

// search returns the index of the first interval whose upper bound is
// at least v (len(c.ivs) if none).
func (c *Closed) search(v value.Value) int {
	i, _ := slices.BinarySearchFunc(c.ivs, v, byHi)
	return i
}

func byHi(iv interval, v value.Value) int { return order(iv.hi, v) }

// insert adds [lo, hi], coalescing it with every interval it overlaps or
// touches.
func (c *Closed) insert(lo, hi value.Value) {
	if c.all {
		return
	}
	i := c.search(lo) // the first interval that can overlap [lo, hi]
	if i > 0 && touches(c.ivs[i-1].hi, lo) {
		i--
	}
	j := i // past the last interval that coalesces
	for ; j < len(c.ivs); j++ {
		iv := c.ivs[j]
		if order(hi, iv.lo) < 0 && !touches(hi, iv.lo) {
			break
		}
		if order(iv.lo, lo) < 0 {
			lo = iv.lo
		}
		if order(hi, iv.hi) < 0 {
			hi = iv.hi
		}
	}
	c.ivs = slices.Replace(c.ivs, i, j, interval{lo, hi})
}

// touches reports whether b immediately follows a: succ(a) == b.
func touches(a, b value.Value) bool {
	s, ok := a.Succ()
	return ok && s.Equal(b)
}

// order is Closed's total order on values: by kind, then as the kind
// orders; floats by cmp.Compare (NaN lowest), then by bits.
func order(a, b value.Value) int {
	switch {
	case a.Kind() != b.Kind():
		return cmp.Compare(a.Kind(), b.Kind())
	case a.Kind() == value.KindFloat:
		x, y := a.FloatVal(), b.FloatVal()
		return cmp.Or(cmp.Compare(x, y), cmp.Compare(math.Float64bits(x), math.Float64bits(y)))
	}
	c, _ := a.Compare(b)
	return c
}
