package stream

import (
	"strings"
	"testing"

	"pjoin/internal/value"
)

// FuzzDecodeTuple checks the spill decoder never panics and accepted
// tuples re-encode to the consumed bytes.
func FuzzDecodeTuple(f *testing.F) {
	sc := MustSchema("S",
		Field{Name: "a", Kind: value.KindInt},
		Field{Name: "b", Kind: value.KindString},
	)
	f.Add(MustTuple(sc, 9, value.Int(1), value.Str("x")).AppendBinary(nil))
	f.Add([]byte{0x80, 0x80})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		tu, n, err := DecodeTuple(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d", n, len(b))
		}
		// Non-minimal varints are tolerated, so compare semantically.
		re := tu.AppendBinary(nil)
		tu2, n2, err := DecodeTuple(re)
		if err != nil || n2 != len(re) {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if tu2.Ts != tu.Ts || tu2.Width() != tu.Width() {
			t.Fatalf("round trip %v -> %v", tu, tu2)
		}
	})
}

// FuzzDecodeTupleArena checks that decoding into a recycling arena
// changes nothing observable: it accepts and rejects exactly what
// DecodeTuple does, consumes the same bytes, yields an equal tuple and
// re-encodes to the same bytes — on fresh slabs, behind an earlier tuple,
// and on slabs recycled by Reset, where a failed decode may have left a
// half-filled run behind.
func FuzzDecodeTupleArena(f *testing.F) {
	sc := MustSchema("S",
		Field{Name: "a", Kind: value.KindInt},
		Field{Name: "b", Kind: value.KindString},
	)
	f.Add(MustTuple(sc, 9, value.Int(1), value.Str("x")).AppendBinary(nil))
	f.Add([]byte{0x80, 0x80})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0, 4, 1, 4, 2}) // second value: bad bool
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})             // no values at all
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantN, wantErr := DecodeTuple(b)
		a := NewArena()
		for round := 0; round < 3; round++ {
			got, n, err := a.DecodeTuple(b)
			if (err == nil) != (wantErr == nil) || n != wantN {
				t.Fatalf("round %d: arena decode n=%d err=%v; plain decode n=%d err=%v", round, n, err, wantN, wantErr)
			}
			if err == nil {
				if got.Ts != want.Ts || got.Span != 0 || !valuesEqual(got.Values, want.Values) {
					t.Fatalf("round %d: arena decoded %v, plain %v", round, got, want)
				}
				if re, plain := got.AppendBinary(nil), want.AppendBinary(nil); string(re) != string(plain) {
					t.Fatalf("round %d: arena tuple re-encodes to %x, plain to %x", round, re, plain)
				}
			}
			if round == 1 {
				a.Reset()
				if err == nil && (got.Values != nil || got.Ts != 0) {
					t.Fatalf("Reset left a decoded tuple readable: %v", got)
				}
			}
		}
		// DecodeKey accepts what DecodeTuple accepts, provided the key
		// position exists, and reads the same timestamp, key and length.
		for attr := 0; attr < 3; attr++ {
			key, ts, n, err := a.DecodeKey(b, attr)
			switch {
			case wantErr != nil || attr >= len(want.Values):
				if err == nil {
					t.Fatalf("attr %d: DecodeKey accepted what DecodeTuple rejects (%v) or has no key for", attr, wantErr)
				}
			case err != nil || n != wantN || ts != want.Ts || !key.Equal(want.Values[attr]):
				t.Fatalf("attr %d: DecodeKey %v, %d, %d, %v; DecodeTuple %v, %d", attr, key, ts, n, err, want, wantN)
			}
		}
	})
}

func valuesEqual(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// FuzzReadItems checks the text-format reader never panics; accepted
// inputs round-trip through WriteItems.
func FuzzReadItems(f *testing.F) {
	f.Add("t 1 5, \"x\"\np 2 <5, *>\ne 3\n")
	f.Add("# comment\n\nt 10 -3, \"a, b\"\n")
	f.Add("t x y")
	f.Add("q 1 boom")
	f.Fuzz(func(t *testing.T, s string) {
		sc := MustSchema("S",
			Field{Name: "k", Kind: value.KindInt},
			Field{Name: "p", Kind: value.KindString},
		)
		items, err := ReadItems(strings.NewReader(s), sc)
		if err != nil {
			return
		}
		var b strings.Builder
		if err := WriteItems(&b, items); err != nil {
			t.Fatalf("accepted items fail to write: %v", err)
		}
		again, err := ReadItems(strings.NewReader(b.String()), sc)
		if err != nil {
			t.Fatalf("written text does not re-parse: %v\n%s", err, b.String())
		}
		if len(again) != len(items) {
			t.Fatalf("round trip count %d -> %d", len(items), len(again))
		}
	})
}
