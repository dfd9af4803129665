package punct

import (
	"testing"

	"pjoin/internal/value"
)

// FuzzParse checks the punctuation parser never panics and accepted
// punctuations round-trip through String.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"<*>", "<5, *>", "<[1 .. 9], {2, 3}, \"x\">", "<{}>",
		"<", "<>", "<*,>", "<[1..>", `<"a,b", *>`, "<[1 .. 2], [3 .. x]>",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		back, err := Parse(p.String())
		if err != nil {
			t.Fatalf("accepted %q -> %v, but %q does not re-parse: %v", s, p, p.String(), err)
		}
		if !back.Equal(p) {
			t.Fatalf("round trip %q -> %v -> %v", s, p, back)
		}
	})
}

// FuzzPatternAnd checks that And never panics on parsed patterns and
// always yields a pattern contained in both inputs.
func FuzzPatternAnd(f *testing.F) {
	f.Add("[1 .. 9]", "{2, 3, 4}")
	f.Add("*", "7")
	f.Add("{}", `"x"`)
	f.Fuzz(func(t *testing.T, sa, sb string) {
		a, err := ParsePattern(sa)
		if err != nil {
			return
		}
		b, err := ParsePattern(sb)
		if err != nil {
			return
		}
		ab := a.And(b)
		if !a.Contains(ab) || !b.Contains(ab) {
			t.Fatalf("And(%v, %v) = %v escapes an operand", a, b, ab)
		}
	})
}

// FuzzWindow holds composed views to punctuations materialised at full
// width: for a parsed punctuation and a fuzzed width, offset and
// attribute, a Widen, a Widen of it, a Place of that and a Widen of the
// Place each answer PatternAt, Matches, Equal and String as the
// punctuation built from their patterns does, and each refuses exactly
// the arguments that do not fit.
func FuzzWindow(f *testing.F) {
	f.Add("<5, *>", uint8(4), uint8(1), uint8(2))
	f.Add(`<[1 .. 9], {2, 3}, "x">`, uint8(3), uint8(0), uint8(1))
	f.Add("<*>", uint8(1), uint8(0), uint8(0))
	f.Add("<{}, 7>", uint8(9), uint8(7), uint8(8))
	f.Add("<[1.5 .. 2.5], true>", uint8(6), uint8(2), uint8(3))
	f.Add("<1, 2, 3>", uint8(2), uint8(0), uint8(1)) // too narrow: Widen refuses
	f.Add("<1, 2>", uint8(2), uint8(0), uint8(4))    // Place refuses the attribute
	f.Fuzz(func(t *testing.T, s string, width, off, attr uint8) {
		p, err := Parse(s)
		if err != nil {
			return
		}
		w, o := int(width), int(off)
		a, err := p.Widen(w, o)
		if (err != nil) != (o+p.Width() > w) {
			t.Fatalf("%s.Widen(%d, %d): %v", p, w, o, err)
		}
		if err != nil {
			return
		}
		full := make([]Pattern, w)
		for i := range p.Width() {
			full[o+i] = p.PatternAt(i)
		}
		agreesWithFull(t, a, full)

		b, err := a.Widen(w+o, o)
		if err != nil {
			t.Fatalf("%s.Widen(%d, %d): %v", a, w+o, o, err)
		}
		full = append(make([]Pattern, o), full...)
		agreesWithFull(t, b, full)

		c, err := b.Place(int(attr), w, o%w)
		if (err != nil) != (int(attr) >= b.Width()) {
			t.Fatalf("%s.Place(%d, %d, %d): %v", b, attr, w, o%w, err)
		}
		if err != nil {
			return
		}
		placed := make([]Pattern, w)
		placed[o%w] = full[attr]
		agreesWithFull(t, c, placed)

		d, err := c.Widen(w+1, 1)
		if err != nil {
			t.Fatalf("%s.Widen(%d, 1): %v", c, w+1, err)
		}
		agreesWithFull(t, d, append([]Pattern{Star()}, placed...))
	})
}

// agreesWithFull fails t where view answers a query otherwise than the
// punctuation New builds from full.
func agreesWithFull(t *testing.T, view Punctuation, full []Pattern) {
	t.Helper()
	m := MustNew(full...)
	if view.Width() != m.Width() || view.String() != m.String() {
		t.Fatalf("view %s (width %d), materialised %s (width %d)", view, view.Width(), m, m.Width())
	}
	if !view.Equal(m) || !m.Equal(view) {
		t.Fatalf("%s: view and materialised are not Equal", m)
	}
	for i, pat := range full {
		if !view.PatternAt(i).Equal(pat) {
			t.Fatalf("%s: view pattern %d is %s", m, i, view.PatternAt(i))
		}
	}
	// Rows built from the patterns' own values, so some of them match.
	for r := range 8 {
		row := make([]value.Value, len(full))
		for i, pat := range full {
			vs := append([]value.Value{iv(int64(r)), pat.lo, pat.hi}, pat.set...)
			row[i] = vs[(r+i)%len(vs)]
		}
		if view.Matches(row) != m.Matches(row) {
			t.Fatalf("%s: Matches(%v) is %v on the view", m, row, view.Matches(row))
		}
		if view.Matches(append(row, iv(0))) {
			t.Fatalf("%s: view matches a wider row", m)
		}
	}
}
