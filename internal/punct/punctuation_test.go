package punct

import (
	"math"
	"strings"
	"testing"

	"pjoin/internal/value"
)

func TestNewRequiresPatterns(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("New() with no patterns should error")
	}
}

func TestPunctuationMatches(t *testing.T) {
	p := MustNew(Const(iv(5)), Star())
	if !p.Matches([]value.Value{iv(5), value.Str("anything")}) {
		t.Error("(5, *) should match (5, anything)")
	}
	if p.Matches([]value.Value{iv(6), value.Str("x")}) {
		t.Error("(5, *) should not match (6, x)")
	}
	if p.Matches([]value.Value{iv(5)}) {
		t.Error("width mismatch should not match")
	}
	if p.Matches([]value.Value{iv(5), value.Str("x"), iv(1)}) {
		t.Error("wider tuple should not match")
	}
}

func TestKeyOnly(t *testing.T) {
	p := MustKeyOnly(3, 1, Const(iv(7)))
	if p.Width() != 3 {
		t.Fatalf("width = %d", p.Width())
	}
	if p.PatternAt(0).Kind() != Wildcard || p.PatternAt(2).Kind() != Wildcard {
		t.Error("non-key attributes should be wildcard")
	}
	for _, i := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PatternAt(%d) of a 3-wide view did not panic", i)
				}
			}()
			p.PatternAt(i)
		}()
	}
	if !p.Matches([]value.Value{iv(1), iv(7), iv(9)}) {
		t.Error("KeyOnly should match on key")
	}
	if p.Matches([]value.Value{iv(1), iv(8), iv(9)}) {
		t.Error("KeyOnly should reject wrong key")
	}
	if _, err := KeyOnly(0, 0, Star()); err == nil {
		t.Error("zero width should error")
	}
	if _, err := KeyOnly(2, 2, Star()); err == nil {
		t.Error("attr out of range should error")
	}
	if _, err := KeyOnly(2, -1, Star()); err == nil {
		t.Error("negative attr should error")
	}
}

func TestWiden(t *testing.T) {
	p := MustNew(Const(iv(5)), MustRange(iv(1), iv(3)))
	for _, off := range []int{0, 1, 3} {
		w, err := p.Widen(5, off)
		if err != nil {
			t.Fatal(err)
		}
		if w.Width() != 5 {
			t.Fatalf("offset %d: width %d", off, w.Width())
		}
		for i := 0; i < 5; i++ {
			want := Star()
			if i >= off && i < off+2 {
				want = p.PatternAt(i - off)
			}
			if !w.PatternAt(i).Equal(want) {
				t.Errorf("offset %d: pattern %d = %s, want %s", off, i, w.PatternAt(i), want)
			}
		}
	}
	if same, err := p.Widen(2, 0); err != nil || !same.Equal(p) {
		t.Errorf("Widen to own width = %s, %v", same, err)
	}
	for _, bad := range [][2]int{{5, 4}, {1, 0}, {5, -1}} {
		if _, err := p.Widen(bad[0], bad[1]); err == nil {
			t.Errorf("Widen(%d, %d) of a 2-wide punctuation accepted", bad[0], bad[1])
		}
	}
	if _, err := (Punctuation{}).Widen(3, 0); err == nil {
		t.Error("Widen of the zero punctuation accepted")
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = p.Widen(5, 1) }); allocs != 0 {
		t.Errorf("Widen allocates %.0f objects, want 0", allocs)
	}
}

func TestPunctuationAnd(t *testing.T) {
	a := MustNew(MustRange(iv(0), iv(10)), Star())
	b := MustNew(MustRange(iv(5), iv(20)), Const(value.Str("x")))
	got, err := a.And(b)
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew(MustRange(iv(5), iv(10)), Const(value.Str("x")))
	if !got.Equal(want) {
		t.Errorf("And = %v, want %v", got, want)
	}
	if _, err := a.And(MustNew(Star())); err == nil {
		t.Error("width mismatch And should error")
	}
}

func TestPunctuationAndIsPunctuation(t *testing.T) {
	// §2.2: the and of any two punctuations is also a punctuation — here,
	// verify it still behaves as a predicate equal to the conjunction.
	a := MustNew(MustEnum(iv(1), iv(2), iv(3)))
	b := MustNew(MustRange(iv(2), iv(9)))
	ab, err := a.And(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 12; i++ {
		tu := []value.Value{iv(i)}
		want := a.Matches(tu) && b.Matches(tu)
		if got := ab.Matches(tu); got != want {
			t.Errorf("and punctuation mismatch at %d: got %v want %v", i, got, want)
		}
	}
}

func TestIsEmpty(t *testing.T) {
	if MustNew(Star(), Const(iv(1))).IsEmpty() {
		t.Error("non-empty punctuation reported empty")
	}
	if !MustNew(Star(), None()).IsEmpty() {
		t.Error("punctuation with empty pattern should be empty")
	}
	var zero Punctuation
	if !zero.IsEmpty() || !zero.IsZero() {
		t.Error("zero punctuation should be empty and zero")
	}
}

func TestPunctuationEqual(t *testing.T) {
	a := MustNew(Const(iv(1)), Star())
	b := MustNew(Const(iv(1)), Star())
	c := MustNew(Const(iv(2)), Star())
	if !a.Equal(b) || a.Equal(c) || a.Equal(MustNew(Star())) {
		t.Error("punctuation Equal broken")
	}
}

func TestPunctuationStringAndParse(t *testing.T) {
	ps := []Punctuation{
		MustNew(Star()),
		MustNew(Const(iv(5)), Star()),
		MustNew(MustRange(iv(1), iv(10)), MustEnum(iv(1), iv(2)), None()),
		MustNew(Const(value.Str("hello, world")), Star()),
		MustNew(Const(value.Str(`with "quote" and ]`))),
	}
	for _, p := range ps {
		got, err := Parse(p.String())
		if err != nil {
			t.Errorf("Parse(%q): %v", p.String(), err)
			continue
		}
		if !got.Equal(p) {
			t.Errorf("round trip %v -> %v", p, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "<>", "no brackets", "<", "<*", "*>",
		"<*,>", "<,*>", "<[1..>", "<{1,2>", "<[1 .. 2}>",
		"<\"unterminated>", "<[x .. 2]>", "<{1, \"a\"}>", "<]>",
	}
	for _, s := range bad {
		if p, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = %v, expected error", s, p)
		}
	}
}

func TestParsePatternErrors(t *testing.T) {
	bad := []string{"", "[1..2", "[1,2]", "{1,2", "12a", "[1 .. oops]"}
	for _, s := range bad {
		if p, err := ParsePattern(s); err == nil {
			t.Errorf("ParsePattern(%q) = %v, expected error", s, p)
		}
	}
}

func TestParseWhitespaceTolerance(t *testing.T) {
	p, err := Parse("  < * ,  [1 .. 3] , {4, 5} >  ")
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew(Star(), MustRange(iv(1), iv(3)), MustEnum(iv(4), iv(5)))
	if !p.Equal(want) {
		t.Errorf("parsed %v, want %v", p, want)
	}
}

func TestPunctuationStringFormat(t *testing.T) {
	s := MustNew(Const(iv(5)), Star()).String()
	if !strings.HasPrefix(s, "<") || !strings.HasSuffix(s, ">") || !strings.Contains(s, "*") {
		t.Errorf("unexpected punctuation format %q", s)
	}
}

// TestWindowWidthLimit: a window's width and offsets are int16, so every
// constructor accepts math.MaxInt16 and refuses one more instead of
// truncating it. And cannot be handed a wider punctuation than its
// inputs, so only its widest legal case is tried.
func TestWindowWidthLimit(t *testing.T) {
	const limit = math.MaxInt16
	c := Const(iv(1))
	stars := func(n int) []Pattern {
		ps := make([]Pattern, n)
		ps[n-1] = c
		return ps
	}
	text := func(n int) string {
		return "<" + strings.Repeat("*, ", n-1) + "1>"
	}
	one := MustNew(c)
	and := func(n int) (Punctuation, error) {
		p, err := New(stars(n)...)
		if err != nil {
			return p, err
		}
		return p.And(p)
	}
	for _, tc := range []struct {
		name string
		make func(n int) (Punctuation, error)
	}{
		{"New", func(n int) (Punctuation, error) { return New(stars(n)...) }},
		{"KeyOnly", func(n int) (Punctuation, error) { return KeyOnly(n, n-1, c) }},
		{"Widen", func(n int) (Punctuation, error) { return one.Widen(n, n-1) }},
		{"Place", func(n int) (Punctuation, error) { return one.Place(0, n, n-1) }},
		{"Parse", func(n int) (Punctuation, error) { return Parse(text(n)) }},
		{"And", and},
	} {
		p, err := tc.make(limit)
		if err != nil {
			t.Fatalf("%s at width %d: %v", tc.name, limit, err)
		}
		if p.Width() != limit || !p.PatternAt(limit-1).Equal(c) || p.PatternAt(limit-2).Kind() != Wildcard {
			t.Errorf("%s at width %d: width %d, last patterns %s %s",
				tc.name, limit, p.Width(), p.PatternAt(limit-2), p.PatternAt(limit-1))
		}
		if !p.Matches(append(make([]value.Value, limit-1), iv(1))) {
			t.Errorf("%s at width %d does not match its own row", tc.name, limit)
		}
		if tc.name == "And" {
			continue
		}
		if p, err := tc.make(limit + 1); err == nil {
			t.Errorf("%s at width %d: no error, width %d", tc.name, limit+1, p.Width())
		}
	}
}
