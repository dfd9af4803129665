// Package value defines the scalar value model used for tuple attributes
// and punctuation patterns. Values are small immutable variants over the
// four kinds a punctuated stream carries in this system: 64-bit integers,
// 64-bit floats, strings, and booleans.
//
// Values of the same kind are totally ordered (booleans order false < true),
// which is what range patterns and sorted enumeration patterns rely on.
// Values of different kinds never compare equal and have no defined order;
// operations across kinds report an error instead of guessing a coercion.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds. KindInvalid is the zero Kind and marks the
// zero Value, which is not a usable attribute value.
const (
	KindInvalid Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

var kindNames = [...]string{KindInt: "int", KindFloat: "float", KindString: "string", KindBool: "bool"}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if k == KindInvalid || int(k) >= len(kindNames) {
		return "invalid"
	}
	return kindNames[k]
}

// Value is an immutable scalar in two words. A string keeps its data
// pointer in p and its length in n; a value of any other kind points p at
// its kind's byte of sentinels and keeps its bits in n (int64 bits,
// float64 bits, or 0/1 for bool). The empty string points at
// sentinels[KindString], so every "" is one Value, and the zero Value has
// p == nil. The zero-length func array makes Value incomparable: compare
// with Equal, and key a map with Key.
//
// The zero Value is invalid; use the constructors Int, Float, Str and
// Bool.
type Value struct {
	_ [0]func()
	p unsafe.Pointer
	n uint64
}

// sentinels gives each non-string kind, and the empty string, an address
// no string data has: a Value's kind is where p points.
var sentinels [KindBool + 1]byte

// of returns the Value at kind k's sentinel with bits n: a non-string
// value, or the empty string (KindString, 0).
func of(k Kind, n uint64) Value { return Value{p: unsafe.Pointer(&sentinels[k]), n: n} }

// kind decodes v's kind from p: a sentinel names its kind, nil is the
// zero Value, any other address is string data.
func (v Value) kind() Kind {
	if d := uintptr(v.p) - uintptr(unsafe.Pointer(&sentinels)); d < uintptr(len(sentinels)) {
		return Kind(d)
	}
	if v.p == nil {
		return KindInvalid
	}
	return KindString
}

// str returns the payload of a string value.
func (v Value) str() string { return unsafe.String((*byte)(v.p), int(v.n)) }

// Int returns an integer value.
func Int(v int64) Value { return of(KindInt, uint64(v)) }

// Float returns a floating-point value.
func Float(v float64) Value { return of(KindFloat, math.Float64bits(v)) }

// Str returns a string value. It refers to v's bytes; strings are
// immutable, so they stay what the value holds.
func Str(v string) Value {
	if len(v) == 0 {
		return of(KindString, 0)
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return of(KindBool, n)
}

// Key is the comparable form of a Value, for map keys: two Values are
// Equal exactly when their Keys are ==.
type Key struct {
	kind Kind
	num  uint64
	str  string
}

// Key returns v's map key.
//
//pjoin:hotpath
func (v Value) Key() Key {
	if k := v.kind(); k != KindString {
		return Key{kind: k, num: v.n}
	}
	return Key{kind: KindString, str: v.str()}
}

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind() }

// IsValid reports whether v is a constructed value (not the zero Value).
func (v Value) IsValid() bool { return v.p != nil }

// IntVal returns the integer payload. It panics if v is not an int.
func (v Value) IntVal() int64 {
	if k := v.kind(); k != KindInt {
		panic(fmt.Sprintf("value: IntVal on %s value", k))
	}
	return int64(v.n)
}

// FloatVal returns the float payload. It panics if v is not a float.
func (v Value) FloatVal() float64 {
	if k := v.kind(); k != KindFloat {
		panic(fmt.Sprintf("value: FloatVal on %s value", k))
	}
	return math.Float64frombits(v.n)
}

// StrVal returns the string payload. It panics if v is not a string.
func (v Value) StrVal() string {
	if k := v.kind(); k != KindString {
		panic(fmt.Sprintf("value: StrVal on %s value", k))
	}
	return v.str()
}

// Equal reports whether v and w are the same kind and payload: the same
// bits for int, float and bool (so -0 and 0 differ, and a NaN equals
// itself), the same bytes for strings wherever they are stored.
//
//pjoin:hotpath
func (v Value) Equal(w Value) bool {
	if v.p == w.p {
		return v.n == w.n
	}
	// At two addresses only two strings of one length can be equal. A
	// value at a sentinel is no string, and neither is the zero Value, but
	// its n is 0, which no string away from the sentinels has.
	return v.n == w.n && !sentinel(v.p) && !sentinel(w.p) && v.str() == w.str()
}

// sentinel reports whether p is one of the sentinels.
func sentinel(p unsafe.Pointer) bool {
	return uintptr(p)-uintptr(unsafe.Pointer(&sentinels)) < uintptr(len(sentinels))
}

// Compare orders two values of the same kind: -1 if v < w, 0 if equal,
// +1 if v > w. It returns an error for mixed kinds or invalid values.
//
//pjoin:hotpath
func (v Value) Compare(w Value) (int, error) {
	k := v.kind()
	if wk := w.kind(); k != wk {
		//pjoin:allow hotpath mixed-kind error path: never taken when both sides come from one schema-checked stream
		return 0, fmt.Errorf("value: cannot compare %s with %s", k, wk)
	}
	switch k {
	case KindInt:
		return cmpOrdered(int64(v.n), int64(w.n)), nil
	case KindFloat:
		return cmpOrdered(math.Float64frombits(v.n), math.Float64frombits(w.n)), nil
	case KindString:
		return strings.Compare(v.str(), w.str()), nil
	case KindBool:
		return cmpOrdered(v.n, w.n), nil
	default:
		//pjoin:allow hotpath invalid-value error path: unreachable for values built by the constructors
		return 0, fmt.Errorf("value: cannot compare invalid values")
	}
}

// Less reports v < w for same-kind values, and false (with no error
// surfaced) otherwise. It is a convenience for sorting homogeneous slices
// whose kind has already been validated.
//
//pjoin:hotpath
func (v Value) Less(w Value) bool {
	c, err := v.Compare(w)
	return err == nil && c < 0
}

func cmpOrdered[T int64 | uint64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Hash returns a 64-bit hash of the value, suitable for hash partitioning.
// Equal values hash equal; values of different kinds hash differently with
// high probability. It is FNV-1a over the kind byte, then the string's
// bytes or the payload's eight little-endian bytes; both loops are
// unrolled, so the multiplications are all that is left in series.
func (v Value) Hash() uint64 {
	k := v.kind()
	if k == KindString {
		// The bytes are read in place, which keeps Hash a leaf without a
		// stack frame, four to an iteration.
		h, p, n := fnvKind(KindString), v.p, uintptr(v.n)
		i := uintptr(0)
		for ; i+4 <= n; i += 4 {
			h = (h ^ uint64(*(*byte)(unsafe.Add(p, i)))) * fnvPrime
			h = (h ^ uint64(*(*byte)(unsafe.Add(p, i+1)))) * fnvPrime
			h = (h ^ uint64(*(*byte)(unsafe.Add(p, i+2)))) * fnvPrime
			h = (h ^ uint64(*(*byte)(unsafe.Add(p, i+3)))) * fnvPrime
		}
		for ; i < n; i++ {
			h = (h ^ uint64(*(*byte)(unsafe.Add(p, i)))) * fnvPrime
		}
		return h
	}
	n, h := v.n, fnvKind(k)
	// Normalise float payloads so +0.0 and -0.0 hash identically, matching
	// Equal-after-Compare semantics used by enumeration patterns.
	if k == KindFloat && math.Float64frombits(n) == 0 {
		n = 0
	}
	h = (h ^ n&0xff) * fnvPrime
	h = (h ^ n>>8&0xff) * fnvPrime
	h = (h ^ n>>16&0xff) * fnvPrime
	h = (h ^ n>>24&0xff) * fnvPrime
	h = (h ^ n>>32&0xff) * fnvPrime
	h = (h ^ n>>40&0xff) * fnvPrime
	h = (h ^ n>>48&0xff) * fnvPrime
	return (h ^ n>>56) * fnvPrime
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvKind is FNV-1a's state after the kind byte k.
func fnvKind(k Kind) uint64 { return (fnvOffset ^ uint64(k)) * fnvPrime }

// String renders the value as it appears in punctuation syntax: integers
// and floats in decimal, strings double-quoted, booleans as true/false.
func (v Value) String() string {
	switch v.kind() {
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		f := math.Float64frombits(v.n)
		t := strconv.FormatFloat(f, 'g', -1, 64)
		// Keep the text unambiguously a float so Parse round-trips:
		// "-2" would re-parse as an int. Inf/NaN are already
		// unambiguous (and must not grow a ".0" suffix).
		if !math.IsInf(f, 0) && !math.IsNaN(f) && !strings.ContainsAny(t, ".eE") {
			t += ".0"
		}
		return t
	case KindString:
		return strconv.Quote(v.str())
	case KindBool:
		return strconv.FormatBool(v.n != 0)
	default:
		return "<invalid>"
	}
}

// Parse parses the textual form produced by String: a quoted string, the
// literals true/false, or a number (an int unless it contains '.', 'e',
// or 'E').
func Parse(s string) (Value, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Value{}, fmt.Errorf("value: empty literal")
	}
	if s[0] == '"' {
		u, err := strconv.Unquote(s)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad string literal %s: %w", s, err)
		}
		return Str(u), nil
	}
	switch s {
	case "true":
		return Bool(true), nil
	case "false":
		return Bool(false), nil
	case "Inf", "+Inf", "-Inf", "NaN":
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad float literal %q: %w", s, err)
		}
		return Float(f), nil
	}
	if strings.ContainsAny(s, ".eE") {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad float literal %q: %w", s, err)
		}
		return Float(f), nil
	}
	i, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return Value{}, fmt.Errorf("value: bad int literal %q: %w", s, err)
	}
	return Int(i), nil
}

// Succ returns the smallest representable value strictly greater than v
// for discrete kinds (int, bool) and reports whether such a value exists.
// punct.Closed coalesces intervals that touch through it.
func (v Value) Succ() (Value, bool) {
	switch v.kind() {
	case KindInt:
		i := int64(v.n)
		if i == math.MaxInt64 {
			return Value{}, false
		}
		return Int(i + 1), true
	case KindBool:
		if v.n == 0 {
			return Bool(true), true
		}
		return Value{}, false
	default:
		return Value{}, false
	}
}
