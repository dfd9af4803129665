package value

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstructorsAndAccessors(t *testing.T) {
	if got := Int(42).IntVal(); got != 42 {
		t.Errorf("Int(42).IntVal() = %d", got)
	}
	if got := Float(2.5).FloatVal(); got != 2.5 {
		t.Errorf("Float(2.5).FloatVal() = %g", got)
	}
	if got := Str("abc").StrVal(); got != "abc" {
		t.Errorf("Str(abc).StrVal() = %q", got)
	}
	if !Bool(true).Equal(Bool(true)) || Bool(false).Equal(Bool(true)) || Bool(false).Kind() != KindBool {
		t.Errorf("Bool round-trip broken")
	}
}

func TestKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		name string
	}{
		{Int(1), KindInt, "int"},
		{Float(1), KindFloat, "float"},
		{Str("x"), KindString, "string"},
		{Bool(true), KindBool, "bool"},
		{Value{}, KindInvalid, "invalid"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v.Kind() = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.Kind().String() != c.name {
			t.Errorf("Kind.String() = %q, want %q", c.v.Kind().String(), c.name)
		}
	}
}

func TestIsValid(t *testing.T) {
	if (Value{}).IsValid() {
		t.Error("zero Value should be invalid")
	}
	if !Int(0).IsValid() {
		t.Error("Int(0) should be valid")
	}
}

func TestAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("IntVal on string", func() { Str("x").IntVal() })
	mustPanic("FloatVal on int", func() { Int(1).FloatVal() })
	mustPanic("StrVal on bool", func() { Bool(true).StrVal() })
}

func TestCompareSameKind(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(-5), Int(5), -1},
		{Float(1.5), Float(2.5), -1},
		{Float(2.5), Float(2.5), 0},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Str("ba"), Str("b"), 1},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
	}
	for _, c := range cases {
		got, err := c.a.Compare(c.b)
		if err != nil {
			t.Errorf("Compare(%v, %v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareMixedKindErrors(t *testing.T) {
	pairs := [][2]Value{
		{Int(1), Float(1)},
		{Int(1), Str("1")},
		{Bool(true), Int(1)},
		{Value{}, Value{}},
	}
	for _, p := range pairs {
		if _, err := p[0].Compare(p[1]); err == nil {
			t.Errorf("Compare(%v, %v): expected error", p[0], p[1])
		}
	}
}

func TestLess(t *testing.T) {
	if !Int(1).Less(Int(2)) {
		t.Error("1 < 2 expected")
	}
	if Int(2).Less(Int(1)) {
		t.Error("2 < 1 unexpected")
	}
	if Int(1).Less(Str("x")) {
		t.Error("mixed-kind Less must be false")
	}
}

func TestEqual(t *testing.T) {
	if !Int(7).Equal(Int(7)) {
		t.Error("Int(7) != Int(7)")
	}
	if Int(7).Equal(Float(7)) {
		t.Error("Int(7) == Float(7) should be false")
	}
	if !Str("").Equal(Str("")) {
		t.Error("empty strings should be equal")
	}
}

func TestHashEqualValuesHashEqual(t *testing.T) {
	pairs := [][2]Value{
		{Int(99), Int(99)},
		{Str("hello"), Str("hel" + "lo")},
		{Float(0.0), Float(math.Copysign(0, -1))}, // +0.0 vs -0.0
	}
	for _, p := range pairs {
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("Hash(%v) != Hash(%v)", p[0], p[1])
		}
	}
}

func TestHashSpreads(t *testing.T) {
	// Not a statistical test, just a smoke check: sequential ints should
	// not all collide modulo a small bucket count.
	buckets := map[uint64]int{}
	for i := int64(0); i < 1024; i++ {
		buckets[Int(i).Hash()%16]++
	}
	if len(buckets) < 8 {
		t.Errorf("hash uses only %d of 16 buckets for sequential ints", len(buckets))
	}
}

func TestHashKindSeparation(t *testing.T) {
	if Int(1).Hash() == Float(1).Hash() && Int(2).Hash() == Float(2).Hash() {
		t.Error("int and float hashes should generally differ")
	}
}

func TestStringAndParseRoundTrip(t *testing.T) {
	vals := []Value{
		Int(0), Int(-17), Int(math.MaxInt64), Int(math.MinInt64),
		Float(3.25), Float(-0.5), Float(1e100),
		Str(""), Str("hello world"), Str("with \"quotes\" and \n newline"),
		Bool(true), Bool(false),
	}
	for _, v := range vals {
		got, err := Parse(v.String())
		if err != nil {
			t.Errorf("Parse(%s): %v", v.String(), err)
			continue
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %s -> %v", v, v.String(), got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", "  ", "\"unterminated", "12a", "--3", "1.2.3"}
	for _, s := range bad {
		if v, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) = %v, expected error", s, v)
		}
	}
}

func TestParseNumberKinds(t *testing.T) {
	v, err := Parse("10")
	if err != nil || v.Kind() != KindInt {
		t.Errorf("Parse(10) = %v (%v), want int", v, err)
	}
	v, err = Parse("10.0")
	if err != nil || v.Kind() != KindFloat {
		t.Errorf("Parse(10.0) = %v (%v), want float", v, err)
	}
	v, err = Parse("1e3")
	if err != nil || v.Kind() != KindFloat {
		t.Errorf("Parse(1e3) = %v (%v), want float", v, err)
	}
}

func TestInvalidString(t *testing.T) {
	if got := (Value{}).String(); !strings.Contains(got, "invalid") {
		t.Errorf("zero Value String() = %q", got)
	}
}

func TestSucc(t *testing.T) {
	if s, ok := Int(5).Succ(); !ok || s.IntVal() != 6 {
		t.Errorf("Succ(5) = %v, %v", s, ok)
	}
	if _, ok := Int(math.MaxInt64).Succ(); ok {
		t.Error("Succ(MaxInt64) should not exist")
	}
	if s, ok := Bool(false).Succ(); !ok || !s.Equal(Bool(true)) {
		t.Error("Succ(false) should be true")
	}
	if _, ok := Bool(true).Succ(); ok {
		t.Error("Succ(true) should not exist")
	}
	if _, ok := Str("a").Succ(); ok {
		t.Error("strings have no successor")
	}
	if _, ok := Float(1).Succ(); ok {
		t.Error("floats have no discrete successor")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	vals := []Value{
		Int(0), Int(-1), Int(math.MaxInt64),
		Float(math.Pi), Float(math.Inf(1)),
		Str(""), Str("x"), Str(strings.Repeat("long", 100)),
		Bool(true), Bool(false),
	}
	for _, v := range vals {
		enc := v.AppendBinary(nil)
		if len(enc) != v.EncodedSize() {
			t.Errorf("EncodedSize(%v) = %d, actual %d", v, v.EncodedSize(), len(enc))
		}
		got, n, err := Decode(enc)
		if err != nil {
			t.Errorf("Decode(%v): %v", v, err)
			continue
		}
		if n != len(enc) {
			t.Errorf("Decode(%v) consumed %d of %d bytes", v, n, len(enc))
		}
		if !got.Equal(v) {
			t.Errorf("binary round trip %v -> %v", v, got)
		}
	}
}

func TestDecodeWithTrailingBytes(t *testing.T) {
	enc := Int(9).AppendBinary(nil)
	enc = append(enc, 0xAA, 0xBB)
	v, n, err := Decode(enc)
	if err != nil || n != 9 || v.IntVal() != 9 {
		t.Errorf("Decode with trailer = %v, %d, %v", v, n, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{byte(KindInt)},                // truncated int
		{byte(KindInt), 1, 2, 3},       // truncated int
		{byte(KindBool)},               // truncated bool
		{byte(KindBool), 2},            // bad bool payload
		{byte(KindString)},             // missing length
		{byte(KindString), 5, 'a'},     // truncated string
		{0xFF, 0, 0},                   // unknown kind
		{byte(KindInvalid), 1, 2, 3},   // invalid kind
		Str("x").AppendBinary(nil)[:2], // cut mid-string
	}
	for i, b := range bad {
		if v, _, err := Decode(b); err == nil {
			t.Errorf("case %d: Decode(% x) = %v, expected error", i, b, v)
		}
	}
}

func TestQuickBinaryRoundTripInts(t *testing.T) {
	f := func(i int64) bool {
		v := Int(i)
		got, n, err := Decode(v.AppendBinary(nil))
		return err == nil && n == v.EncodedSize() && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBinaryRoundTripStrings(t *testing.T) {
	f := func(s string) bool {
		v := Str(s)
		got, n, err := Decode(v.AppendBinary(nil))
		return err == nil && n == v.EncodedSize() && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickStringParseRoundTrip(t *testing.T) {
	f := func(s string) bool {
		v := Str(s)
		got, err := Parse(v.String())
		return err == nil && got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		ca, err1 := Int(a).Compare(Int(b))
		cb, err2 := Int(b).Compare(Int(a))
		return err1 == nil && err2 == nil && ca == -cb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickHashConsistentWithEqual(t *testing.T) {
	f := func(a int64) bool {
		return Int(a).Hash() == Int(a).Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
