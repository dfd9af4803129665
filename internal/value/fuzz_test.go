package value

import (
	"testing"
)

// FuzzParse checks that Parse never panics and that everything it
// accepts round-trips through String.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"", "0", "-17", "3.5", "1e9", `"hello"`, `"a,b"`, "true", "false",
		"NaN", "-Inf", `"unterminated`, "9999999999999999999999", "- 1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := Parse(s)
		if err != nil {
			return
		}
		back, err := Parse(v.String())
		if err != nil {
			t.Fatalf("accepted %q -> %v, but String() %q does not re-parse: %v", s, v, v.String(), err)
		}
		// NaN is the one value that is not Equal to itself.
		if !back.Equal(v) && !(v.Kind() == KindFloat && v.FloatVal() != v.FloatVal()) {
			t.Fatalf("round trip %q -> %v -> %v", s, v, back)
		}
	})
}

// FuzzDecode checks the binary decoder never panics and that everything
// it accepts re-encodes to the bytes it consumed.
func FuzzDecode(f *testing.F) {
	for _, v := range []Value{Int(-1), Float(3.5), Str("abc"), Bool(true)} {
		f.Add(v.AppendBinary(nil))
	}
	f.Add([]byte{0xFF, 0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		v, n, err := Decode(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		// The decoder tolerates non-minimal varints, so canonical bytes
		// are not guaranteed — but the re-encoding must decode to the
		// same value.
		re := v.AppendBinary(nil)
		v2, n2, err := Decode(re)
		if err != nil || n2 != len(re) {
			t.Fatalf("re-encoding of %v does not decode: %v", v, err)
		}
		same := v2.Equal(v) ||
			(v.Kind() == KindFloat && v.FloatVal() != v.FloatVal() && v2.FloatVal() != v2.FloatVal())
		if !same {
			t.Fatalf("round trip %v -> %v", v, v2)
		}
	})
}

// FuzzDecodeSlab checks that decoding string payloads into a slab changes
// nothing observable: the slab-backed decoder accepts and rejects what
// Decode does, consumes the same bytes and yields the same value — also
// when the payload lands behind earlier ones in a part-filled slab — and
// that value does what its model does (model_test.go).
func FuzzDecodeSlab(f *testing.F) {
	for _, v := range []Value{Int(-1), Float(3.5), Str("abc"), Str(""), Bool(true)} {
		f.Add(v.AppendBinary(nil))
	}
	f.Add([]byte{byte(KindString), 0x80})
	f.Add([]byte{byte(KindBool), 2})
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantN, wantErr := Decode(b)
		ss := NewStrings()
		ss.intern([]byte("earlier payload"))
		for round := 0; round < 2; round++ {
			got, n, err := ss.Decode(b)
			if (err == nil) != (wantErr == nil) || n != wantN || !got.Equal(want) {
				t.Fatalf("slab decode %v, %d, %v; plain decode %v, %d, %v", got, n, err, want, wantN, wantErr)
			}
			if err == nil {
				agrees(t, got, modelOf(want))
				agreePair(t, got, want, modelOf(want), modelOf(want))
			}
		}
		// Skip passes over exactly what Decode consumes and rejects what
		// it rejects, with the same error.
		if n, err := Skip(b); err != wantErr || n != wantN {
			t.Fatalf("Skip %d, %v; Decode %d, %v", n, err, wantN, wantErr)
		}
	})
}

func TestStringsSlab(t *testing.T) {
	ss := NewStrings()
	a := ss.intern([]byte("alpha"))
	b := ss.intern([]byte("beta"))
	if a != "alpha" || b != "beta" {
		t.Fatalf("interned %q, %q", a, b)
	}
	// Filling the slab starts a new one; a payload that does not fit and
	// is over a quarter slab becomes its own string instead and leaves
	// the slab where it was. Every string handed out stays intact.
	big := make([]byte, stringSlabBytes/4+1)
	for i := range big {
		big[i] = 'x'
	}
	for i := 0; i < 8; i++ {
		used, room := ss.b.Len(), ss.b.Cap()-ss.b.Len()
		s := ss.intern(big)
		if s != string(big) {
			t.Fatalf("payload %d corrupted", i)
		}
		if room < len(big) && ss.b.Len() != used {
			t.Errorf("payload %d did not fit (%d free) but moved the slab %d -> %d", i, room, used, ss.b.Len())
		}
	}
	for i := 0; i < 3*stringSlabBytes/64; i++ {
		if s := ss.intern(big[:64]); s != string(big[:64]) {
			t.Fatalf("short payload %d corrupted", i)
		}
	}
	if a != "alpha" || b != "beta" {
		t.Errorf("earlier strings changed to %q, %q after a slab refill", a, b)
	}
	if n := testing.AllocsPerRun(100, func() { ss.intern([]byte("k")) }); n > 0.01 {
		t.Errorf("interning a short payload allocates %.2f objects, want ~0 (one per slab)", n)
	}
}
