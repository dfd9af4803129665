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
// applied it — retires by coalescing: a run of per-key constants becomes
// one range.
func ExampleSet_Applied() {
	s := punct.NewKeyedSet(0, false)
	s.NoRelease = true
	for k := int64(0); k < 5; k++ {
		s.Add(punct.MustKeyOnly(2, 0, punct.Const(value.Int(k))))
	}
	s.Applied(s.MaxPID())
	fmt.Println(s.Len(), s.Entries()[0].P)
	// Output:
	// 1 <[0 .. 4], *>
}

func ExamplePattern_TryUnion() {
	a := punct.MustRange(value.Int(1), value.Int(5))
	b := punct.Const(value.Int(6))
	u, ok := a.TryUnion(b)
	fmt.Println(u, ok)
	// Output:
	// [1 .. 6] true
}
