package value

import (
	"encoding/binary"
	"errors"
	"strings"
)

// AppendBinary appends a compact binary encoding of v to dst and returns
// the extended slice. The format is one kind byte followed by the payload:
// 8 little-endian bytes for int/float, 1 byte for bool, and a uvarint
// length-prefixed byte string for strings. Decode reverses it.
func (v Value) AppendBinary(dst []byte) []byte {
	k := v.kind()
	dst = append(dst, byte(k))
	switch k {
	case KindInt, KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, v.n)
	case KindBool:
		dst = append(dst, byte(v.n))
	case KindString:
		dst = binary.AppendUvarint(dst, v.n)
		dst = append(dst, v.str()...)
	}
	return dst
}

// Decode errors. They are fixed values so the decode path allocates
// nothing on failure either; callers add the context (which record,
// which partition).
var (
	errDecodeEmpty     = errors.New("value: decode: empty buffer")
	errDecodeTruncated = errors.New("value: decode: truncated payload")
	errDecodeBool      = errors.New("value: decode: bad bool payload")
	errDecodeStrLen    = errors.New("value: decode: bad string length")
	errDecodeKind      = errors.New("value: decode: unknown kind byte")
)

// stringSlabBytes is the size of one Strings slab. A decoded string that
// outlives its scan (a join result's attribute) keeps its whole slab
// reachable, so this is also the most one retained string can pin.
const stringSlabBytes = 8 << 10

// Strings is the payload store of a decode arena: string payloads are
// appended to a fixed-size slab and handed out as substrings of it, one
// allocation per stringSlabBytes of payload instead of one per string.
// A string, once handed out, is immutable and valid forever; the slab is
// only ever appended to, and is dropped (not reused) when full. Only what
// is decoded costs slab bytes: a disk scan decodes the join key of every
// spill record but the rest of a record only when it decodes that record
// in full, and a value passed over with Skip costs nothing.
//
// The zero Strings has no slab: every payload becomes its own string, as
// a one-off Decode wants. NewStrings enables the slab. A Strings must
// not be copied after first use.
type Strings struct {
	b    strings.Builder
	slab int
}

// NewStrings returns a slab-backed Strings.
func NewStrings() Strings { return Strings{slab: stringSlabBytes} }

// intern returns p's bytes as a string.
func (s *Strings) intern(p []byte) string {
	if len(p) == 0 {
		return ""
	}
	if len(p) > s.b.Cap()-s.b.Len() {
		if len(p) > s.slab/4 {
			//pjoin:allow hotpath oversized payload: a string longer than a quarter slab is its own allocation instead of wasting the slab's remainder; with no slab (the zero Strings) that is every string
			return string(p)
		}
		// Slab refill: one allocation per stringSlabBytes of payload.
		// Strings handed out so far keep the old slab alive.
		s.b.Reset()
		s.b.Grow(s.slab)
	}
	off := s.b.Len()
	s.b.Write(p)
	return s.b.String()[off:]
}

// Decode decodes one value from the front of b, returning the value and
// the number of bytes consumed. A string payload is a fresh string.
func Decode(b []byte) (Value, int, error) {
	var heap Strings
	return heap.Decode(b)
}

// Decode decodes one value from the front of b like the package-level
// Decode, placing a string payload in s.
//
//pjoin:hotpath
func (s *Strings) Decode(b []byte) (Value, int, error) {
	k, p, n, err := frame(b)
	if err != nil {
		return Value{}, 0, err
	}
	switch k {
	case KindString:
		return Str(s.intern(p)), n, nil
	case KindBool:
		return of(k, uint64(p[0])), n, nil
	default:
		return of(k, binary.LittleEndian.Uint64(p)), n, nil
	}
}

// Skip returns the length of the value encoded at the front of b, making
// every check Decode makes, without decoding it: a string payload is
// neither copied nor placed anywhere.
//
//pjoin:hotpath
func Skip(b []byte) (int, error) {
	_, _, n, err := frame(b)
	return n, err
}

// frame checks the value encoding at the front of b and returns its kind,
// its payload and its length: the one parse behind Decode and Skip.
//
//pjoin:hotpath
func frame(b []byte) (Kind, []byte, int, error) {
	if len(b) == 0 {
		return 0, nil, 0, errDecodeEmpty
	}
	k := Kind(b[0])
	rest := b[1:]
	switch k {
	case KindInt, KindFloat:
		if len(rest) < 8 {
			return 0, nil, 0, errDecodeTruncated
		}
		return k, rest[:8], 9, nil
	case KindBool:
		if len(rest) < 1 {
			return 0, nil, 0, errDecodeTruncated
		}
		if rest[0] > 1 {
			return 0, nil, 0, errDecodeBool
		}
		return k, rest[:1], 2, nil
	case KindString:
		n, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return 0, nil, 0, errDecodeStrLen
		}
		if uint64(len(rest)-sz) < n {
			return 0, nil, 0, errDecodeTruncated
		}
		return k, rest[sz : sz+int(n)], 1 + sz + int(n), nil
	default:
		return 0, nil, 0, errDecodeKind
	}
}

// EncodedSize returns the number of bytes AppendBinary will emit for v.
// The store uses it for memory/disk accounting without materialising the
// encoding.
func (v Value) EncodedSize() int {
	switch v.kind() {
	case KindInt, KindFloat:
		return 9
	case KindBool:
		return 2
	case KindString:
		return 1 + uvarintLen(v.n) + int(v.n)
	default:
		return 1
	}
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}
