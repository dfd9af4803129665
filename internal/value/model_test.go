package value

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// model is the representation Value had before it was two words: a kind,
// the bits of a non-string payload, and the string. == on it was Equal,
// and it keyed maps itself. Its methods are that representation's code,
// so every operation of Value can be checked against it.
type model struct {
	kind Kind
	num  uint64
	str  string
}

func (m model) value() Value {
	switch m.kind {
	case KindInt:
		return Int(int64(m.num))
	case KindFloat:
		return Float(math.Float64frombits(m.num))
	case KindString:
		return Str(m.str)
	case KindBool:
		return Bool(m.num != 0)
	default:
		return Value{}
	}
}

func (m model) compare(w model) (int, bool) {
	if m.kind != w.kind {
		return 0, false
	}
	switch m.kind {
	case KindInt:
		return cmpOrdered(int64(m.num), int64(w.num)), true
	case KindFloat:
		return cmpOrdered(math.Float64frombits(m.num), math.Float64frombits(w.num)), true
	case KindString:
		return strings.Compare(m.str, w.str), true
	case KindBool:
		return cmpOrdered(m.num, w.num), true
	default:
		return 0, false
	}
}

func (m model) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h ^= uint64(m.kind)
	h *= prime64
	if m.kind == KindString {
		for i := 0; i < len(m.str); i++ {
			h ^= uint64(m.str[i])
			h *= prime64
		}
		return h
	}
	n := m.num
	if m.kind == KindFloat && math.Float64frombits(n) == 0 {
		n = 0
	}
	for i := 0; i < 8; i++ {
		h ^= n & 0xff
		h *= prime64
		n >>= 8
	}
	return h
}

func (m model) String() string {
	switch m.kind {
	case KindInt:
		return strconv.FormatInt(int64(m.num), 10)
	case KindFloat:
		f := math.Float64frombits(m.num)
		t := strconv.FormatFloat(f, 'g', -1, 64)
		if !math.IsInf(f, 0) && !math.IsNaN(f) && !strings.ContainsAny(t, ".eE") {
			t += ".0"
		}
		return t
	case KindString:
		return strconv.Quote(m.str)
	case KindBool:
		return strconv.FormatBool(m.num != 0)
	default:
		return "<invalid>"
	}
}

func (m model) succ() (model, bool) {
	switch {
	case m.kind == KindInt && int64(m.num) != math.MaxInt64:
		return model{kind: KindInt, num: m.num + 1}, true
	case m.kind == KindBool && m.num == 0:
		return model{kind: KindBool, num: 1}, true
	default:
		return model{}, false
	}
}

func (m model) appendBinary(dst []byte) []byte {
	dst = append(dst, byte(m.kind))
	switch m.kind {
	case KindInt, KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, m.num)
	case KindBool:
		dst = append(dst, byte(m.num))
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(m.str)))
		dst = append(dst, m.str...)
	}
	return dst
}

// modelOf reads v back through its accessors.
func modelOf(v Value) model {
	switch v.Kind() {
	case KindInt:
		return model{kind: KindInt, num: uint64(v.IntVal())}
	case KindFloat:
		return model{kind: KindFloat, num: math.Float64bits(v.FloatVal())}
	case KindString:
		return model{kind: KindString, str: v.StrVal()}
	case KindBool:
		if v.n != 0 {
			return model{kind: KindBool, num: 1}
		}
		return model{kind: KindBool}
	default:
		return model{}
	}
}

// agrees fails t unless v does everything its model m does on its own:
// kind, key, hash, text, successor, encoding and its decoding.
func agrees(t *testing.T, v Value, m model) {
	t.Helper()
	if got := modelOf(v); got != m {
		t.Fatalf("%v reads back as %+v, model %+v", v, got, m)
	}
	if v.IsValid() != (m.kind != KindInvalid) {
		t.Fatalf("%v: IsValid %v, model kind %v", v, v.IsValid(), m.kind)
	}
	if got, want := v.Key(), (Key{kind: m.kind, num: m.num, str: m.str}); got != want {
		t.Fatalf("%v: Key %+v, model %+v", v, got, want)
	}
	if got, want := v.Hash(), m.hash(); got != want {
		t.Fatalf("%v: Hash %#x, model %#x", v, got, want)
	}
	if got, want := v.String(), m.String(); got != want {
		t.Fatalf("String %q, model %q", got, want)
	}
	s, ok := v.Succ()
	ms, mok := m.succ()
	if ok != mok || modelOf(s) != ms {
		t.Fatalf("%v: Succ %v %v, model %+v %v", v, s, ok, ms, mok)
	}
	enc := v.AppendBinary([]byte{0xEE})
	if want := m.appendBinary([]byte{0xEE}); !bytes.Equal(enc, want) {
		t.Fatalf("%v: AppendBinary % x, model % x", v, enc, want)
	}
	if v.EncodedSize() != len(enc)-1 {
		t.Fatalf("%v: EncodedSize %d, encoding %d bytes", v, v.EncodedSize(), len(enc)-1)
	}
	if m.kind == KindInvalid {
		return
	}
	ss := NewStrings()
	for _, dec := range []func([]byte) (Value, int, error){Decode, ss.Decode} {
		d, n, err := dec(enc[1:])
		if err != nil || n != len(enc)-1 || modelOf(d) != m || !d.Equal(v) || d.Hash() != v.Hash() {
			t.Fatalf("%v decodes as %v, %d, %v", v, d, n, err)
		}
	}
}

// agreePair fails t unless v and w relate as their models do: Equal is
// ==, Key equality is ==, and Compare and Less follow the model's order.
func agreePair(t *testing.T, v, w Value, mv, mw model) {
	t.Helper()
	if got, want := v.Equal(w), mv == mw; got != want {
		t.Fatalf("%v.Equal(%v) = %v, model %v (%+v, %+v)", v, w, got, want, mv, mw)
	}
	if got, want := v.Key() == w.Key(), mv == mw; got != want {
		t.Fatalf("%v.Key() == %v.Key(): %v, model %v", v, w, got, want)
	}
	c, err := v.Compare(w)
	mc, ok := mv.compare(mw)
	if (err == nil) != ok || c != mc {
		t.Fatalf("%v.Compare(%v) = %d, %v; model %d, %v", v, w, c, err, mc, ok)
	}
	if got, want := v.Less(w), ok && mc < 0; got != want {
		t.Fatalf("%v.Less(%v) = %v, model %v", v, w, got, want)
	}
}

// modelCorners are the values a two-word representation could get wrong:
// both zeros, NaNs of two payloads, the int extremes (whose bits a
// pointer-tagged encoding would have to share), the empty string next to
// every zero payload, and the zero Value.
func modelCorners() []model {
	f := func(x float64) model { return model{kind: KindFloat, num: math.Float64bits(x)} }
	i := func(x int64) model { return model{kind: KindInt, num: uint64(x)} }
	return []model{
		{}, i(0), i(1), i(-1), i(math.MinInt64), i(math.MaxInt64),
		f(0), f(math.Copysign(0, -1)), f(math.NaN()), {kind: KindFloat, num: 0x7ff8000000000001},
		f(math.Inf(1)), f(math.Inf(-1)), f(1), f(-2.5),
		{kind: KindString}, {kind: KindString, str: "a"}, {kind: KindString, str: "ab"},
		{kind: KindString, str: "\x00"}, {kind: KindString, str: strings.Repeat("z", 300)},
		{kind: KindBool}, {kind: KindBool, num: 1},
	}
}

// randModel draws from small pools so that equal values are common.
func randModel(rng *rand.Rand, corners []model) model {
	switch rng.Intn(5) {
	case 0:
		return corners[rng.Intn(len(corners))]
	case 1:
		return model{kind: KindInt, num: uint64(rng.Int63n(8) - 4)}
	case 2:
		return model{kind: KindFloat, num: math.Float64bits(float64(rng.Intn(8)-4) / 2)}
	case 3:
		b := make([]byte, rng.Intn(4))
		for j := range b {
			b[j] = "ab"[rng.Intn(2)]
		}
		return model{kind: KindString, str: string(b)}
	default:
		return model{kind: KindBool, num: uint64(rng.Intn(2))}
	}
}

// TestValueMatchesModel holds every operation of Value to the
// representation it replaced, over corner cases and seeded values whose
// strings are stored three ways: each in an array of its own, all
// decoded into one Strings slab, and as substrings of one string.
func TestValueMatchesModel(t *testing.T) {
	corners := modelCorners()
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ms := append([]model(nil), corners...)
		for len(ms) < 200 {
			ms = append(ms, randModel(rng, corners))
		}
		// Three Values per model: built from a fresh copy of the string,
		// decoded into a shared slab, and cut from one long string.
		var whole strings.Builder
		for _, m := range ms {
			whole.WriteString(m.str)
		}
		all := whole.String()
		ss := NewStrings()
		vs := make([][3]Value, len(ms))
		off := 0
		for j, m := range ms {
			d, _, err := ss.Decode(m.appendBinary(nil))
			if m.kind == KindInvalid {
				d = Value{} // the zero Value has no encoding to decode
			} else if err != nil {
				t.Fatal(err)
			}
			m.str = strings.Clone(m.str)
			vs[j] = [3]Value{m.value(), d, model{kind: m.kind, num: m.num, str: all[off : off+len(m.str)]}.value()}
			off += len(m.str)
		}
		for j, m := range ms {
			for _, v := range vs[j] {
				agrees(t, v, m)
			}
		}
		for p := 0; p < 2000; p++ {
			a, b := rng.Intn(len(ms)), rng.Intn(len(ms))
			agreePair(t, vs[a][rng.Intn(3)], vs[b][rng.Intn(3)], ms[a], ms[b])
		}
	}
	for _, a := range corners {
		for _, b := range corners {
			agreePair(t, a.value(), b.value(), a, b)
		}
	}
	// A prefix shares its string's data pointer: one address, two
	// lengths, two values.
	s := strings.Repeat("ab", 3)
	for n := 0; n < len(s); n++ {
		agreePair(t, Str(s[:n]), Str(s), model{kind: KindString, str: s[:n]}, model{kind: KindString, str: s})
	}
}

// FuzzValueMatchesModel holds a pair of values built from fuzzed models
// to them, one of the pair's strings cut from the other's where they are
// equal (a second backing array for the same bytes).
func FuzzValueMatchesModel(f *testing.F) {
	for _, m := range modelCorners() {
		f.Add(uint8(m.kind), m.num, m.str, uint8(m.kind), m.num, m.str)
	}
	f.Add(uint8(KindString), uint64(0), "", uint8(KindInt), uint64(0), "")
	f.Fuzz(func(t *testing.T, k1 uint8, n1 uint64, s1 string, k2 uint8, n2 uint64, s2 string) {
		norm := func(k uint8, n uint64, s string) model {
			switch m := (model{kind: Kind(k) % (KindBool + 1)}); m.kind {
			case KindString:
				m.str = s
				return m
			case KindBool:
				m.num = n & 1
				return m
			case KindInvalid:
				return m
			default:
				m.num = n
				return m
			}
		}
		mv, mw := norm(k1, n1, s1), norm(k2, n2, s2)
		v, w := mv.value(), mw.value()
		if mv.kind == KindString && mv == mw {
			w = Str(strings.Clone(mw.str)) // equal bytes, another array
		}
		agrees(t, v, mv)
		agrees(t, w, mw)
		agreePair(t, v, w, mv, mw)
		agreePair(t, w, v, mw, mv)
	})
}
