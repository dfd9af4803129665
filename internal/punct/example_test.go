package punct_test

import (
	"fmt"

	"pjoin/internal/punct"
	"pjoin/internal/value"
)

// A punctuation is an ordered set of patterns, one per attribute; a
// tuple matching it will never appear later in the stream.
func Example() {
	// "No more tuples with item_id 5" over an (item_id, bid) stream.
	p := punct.MustKeyOnly(2, 0, punct.Const(value.Int(5)))
	fmt.Println(p)
	fmt.Println(p.Matches([]value.Value{value.Int(5), value.Float(10)}))
	fmt.Println(p.Matches([]value.Value{value.Int(6), value.Float(10)}))

	// Patterns come in five kinds; the conjunction of two punctuations
	// is a punctuation (§2.2).
	q := punct.MustKeyOnly(2, 0, punct.MustRange(value.Int(0), value.Int(9)))
	and, _ := p.And(q)
	fmt.Println(and)
	// Output:
	// <5, *>
	// true
	// false
	// <5, *>
}

// Sets keep punctuations in arrival order and support the purge rules'
// setMatch predicate plus the propagation index (pid + count).
func ExampleSet() {
	s := punct.NewKeyedSet(0, false)
	s.Add(punct.MustKeyOnly(2, 0, punct.Const(value.Int(1))))
	s.Add(punct.MustKeyOnly(2, 0, punct.MustRange(value.Int(10), value.Int(19))))

	fmt.Println(s.SetMatchAttr(0, value.Int(1)))
	fmt.Println(s.SetMatchAttr(0, value.Int(15)))
	fmt.Println(s.SetMatchAttr(0, value.Int(5)))
	// Output:
	// true
	// true
	// false
}

// A punctuation that owes nothing — no tuple counts toward it, it was
// released (here: nothing is ever released) and the opposite purge has
// applied it — retires: it leaves the set, and its key joins the set's
// closed intervals, where a run of per-key constants is one interval.
func ExampleSet_Applied() {
	s := punct.NewKeyedSet(0, false)
	s.NoRelease = true
	for k := int64(0); k < 5; k++ {
		s.Add(punct.MustKeyOnly(2, 0, punct.Const(value.Int(k))))
	}
	s.Applied(s.MaxPID())
	fmt.Println(s.Len(), s.ClosedLen(), s.SetMatchAttr(0, value.Int(3)))
	// Output:
	// 0 1 true
}

// A Closed keeps only the union of what punctuations closed on one
// attribute: adjacent ints coalesce, an enumeration goes in as its
// members, and a punctuation that pins another attribute closes nothing.
func ExampleClosed() {
	c := punct.NewClosed(0)
	c.Add(punct.MustKeyOnly(2, 0, punct.MustRange(value.Int(1), value.Int(5))))
	c.Add(punct.MustKeyOnly(2, 0, punct.Const(value.Int(6))))
	c.Add(punct.MustKeyOnly(2, 0, punct.MustEnum(value.Int(9), value.Int(11))))
	c.Add(punct.MustNew(punct.Const(value.Int(7)), punct.Const(value.Int(0))))
	fmt.Println(c.Len(), c.Has(value.Int(6)), c.Has(value.Int(7)), c.Has(value.Int(10)))
	// Output:
	// 3 true false false
}
