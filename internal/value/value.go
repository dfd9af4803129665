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

// Value is an immutable scalar. The zero Value is invalid; use the
// constructors Int, Float, Str and Bool.
type Value struct {
	kind Kind
	num  uint64 // int64 bits, float64 bits, or 0/1 for bool
	str  string
}

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, num: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, num: math.Float64bits(v)} }

// Str returns a string value.
func Str(v string) Value { return Value{kind: KindString, str: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var n uint64
	if v {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether v is a constructed value (not the zero Value).
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// IntVal returns the integer payload. It panics if v is not an int.
func (v Value) IntVal() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: IntVal on %s value", v.kind))
	}
	return int64(v.num)
}

// FloatVal returns the float payload. It panics if v is not a float.
func (v Value) FloatVal() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("value: FloatVal on %s value", v.kind))
	}
	return math.Float64frombits(v.num)
}

// StrVal returns the string payload. It panics if v is not a string.
func (v Value) StrVal() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: StrVal on %s value", v.kind))
	}
	return v.str
}

// BoolVal returns the boolean payload. It panics if v is not a bool.
func (v Value) BoolVal() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("value: BoolVal on %s value", v.kind))
	}
	return v.num != 0
}

// Equal reports whether v and w are the same kind and payload.
//
//pjoin:hotpath
func (v Value) Equal(w Value) bool { return v == w }

// Compare orders two values of the same kind: -1 if v < w, 0 if equal,
// +1 if v > w. It returns an error for mixed kinds or invalid values.
//
//pjoin:hotpath
func (v Value) Compare(w Value) (int, error) {
	if v.kind != w.kind {
		//pjoin:allow hotpath mixed-kind error path: never taken when both sides come from one schema-checked stream
		return 0, fmt.Errorf("value: cannot compare %s with %s", v.kind, w.kind)
	}
	switch v.kind {
	case KindInt:
		return cmpOrdered(int64(v.num), int64(w.num)), nil
	case KindFloat:
		return cmpOrdered(math.Float64frombits(v.num), math.Float64frombits(w.num)), nil
	case KindString:
		return strings.Compare(v.str, w.str), nil
	case KindBool:
		return cmpOrdered(v.num, w.num), nil
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
// high probability.
func (v Value) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h ^= uint64(v.kind)
	h *= prime64
	if v.kind == KindString {
		for i := 0; i < len(v.str); i++ {
			h ^= uint64(v.str[i])
			h *= prime64
		}
		return h
	}
	n := v.num
	// Normalise float payloads so +0.0 and -0.0 hash identically, matching
	// Equal-after-Compare semantics used by enumeration patterns.
	if v.kind == KindFloat && math.Float64frombits(n) == 0 {
		n = 0
	}
	for i := 0; i < 8; i++ {
		h ^= n & 0xff
		h *= prime64
		n >>= 8
	}
	return h
}

// String renders the value as it appears in punctuation syntax: integers
// and floats in decimal, strings double-quoted, booleans as true/false.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindFloat:
		f := math.Float64frombits(v.num)
		t := strconv.FormatFloat(f, 'g', -1, 64)
		// Keep the text unambiguously a float so Parse round-trips:
		// "-2" would re-parse as an int. Inf/NaN are already
		// unambiguous (and must not grow a ".0" suffix).
		if !math.IsInf(f, 0) && !math.IsNaN(f) && !strings.ContainsAny(t, ".eE") {
			t += ".0"
		}
		return t
	case KindString:
		return strconv.Quote(v.str)
	case KindBool:
		return strconv.FormatBool(v.num != 0)
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
	switch v.kind {
	case KindInt:
		i := int64(v.num)
		if i == math.MaxInt64 {
			return Value{}, false
		}
		return Int(i + 1), true
	case KindBool:
		if v.num == 0 {
			return Bool(true), true
		}
		return Value{}, false
	default:
		return Value{}, false
	}
}
