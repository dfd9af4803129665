package stream

import (
	"encoding/binary"
	"errors"

	"pjoin/internal/slab"
	"pjoin/internal/value"
)

// AppendBinary appends a compact binary encoding of the tuple to dst:
// uvarint value count, 8-byte little-endian timestamp, then each value in
// the value package's binary format. DecodeTuple reverses it. The spill
// store uses this format for on-disk partitions.
func (t *Tuple) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t.Values)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.Ts))
	for _, v := range t.Values {
		dst = v.AppendBinary(dst)
	}
	return dst
}

// EncodedSize returns the number of bytes AppendBinary emits for t. The
// state store uses it as the tuple's memory-accounting size so that
// in-memory and on-disk accounting agree.
func (t *Tuple) EncodedSize() int {
	n := uvarintLen(uint64(len(t.Values))) + 8
	for _, v := range t.Values {
		n += v.EncodedSize()
	}
	return n
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// Decode errors, fixed values so a failed decode allocates nothing; a
// bad value surfaces the value package's own error.
var (
	errDecodeCount     = errors.New("stream: decode tuple: bad value count")
	errDecodeManyVals  = errors.New("stream: decode tuple: implausible value count")
	errDecodeTimestamp = errors.New("stream: decode tuple: truncated timestamp")
	errDecodeNoKey     = errors.New("stream: decode tuple: no value at the key position")
)

// Arena chunk lengths: tuple headers and attribute values per slab
// chunk, room for 255 tuples of width 4, as many as a chunk of the join
// state's wrappers (store.storedChunk). A tuple wider than arenaValues
// gets a values slice of its own. Each chunk fills its malloc size class
// with the 8-byte header: 255 × 40 + 8 = 10,208 B in the 10,240 class,
// 1,020 × 16 + 8 = 16,328 B in the 16,384 class (256 headers took the
// 10,880 class, and 1,024 values would take 18,432). ArenaChunkBytes is
// what one chunk of each occupies.
const (
	arenaTuples     = 255
	arenaValues     = 4 * arenaTuples
	ArenaChunkBytes = arenaTuples*tupleBytes + arenaValues*valueBytes
)

// Arena is where decoded tuples live: headers and value slices are
// carved from recyclable slabs (internal/slab), string payloads from a
// value.Strings. Everything decoded into an arena is valid until its
// next Reset, which wipes the slabs for reuse: a tuple held across a
// Reset reads as the zero Tuple. String payloads are the exception —
// strings are immutable, so they stay valid for as long as anything
// refers to them.
//
// The zero Arena recycles nothing: each decoded tuple is a header, a
// values slice and one string per payload, all ordinary allocations
// owned by whoever holds the tuple. That is DecodeTuple. An Arena must
// not be copied after first use.
type Arena struct {
	hdrs slab.Slab[Tuple]
	vals slab.Slab[value.Value]
	strs value.Strings
}

// NewArena returns a recycling arena.
func NewArena() Arena {
	return Arena{
		hdrs: slab.New[Tuple](arenaTuples),
		vals: slab.New[value.Value](arenaValues),
		strs: value.NewStrings(),
	}
}

// Reset ends the lifetime of every tuple decoded so far.
func (a *Arena) Reset() {
	a.hdrs.Reset()
	a.vals.Reset()
}

// Trim bounds what the arena retains for reuse to keep chunks of each
// slab, keep × ArenaChunkBytes (plus the current string slab, 8 KiB);
// tuples already decoded stay valid.
func (a *Arena) Trim(keep int) {
	a.hdrs.Trim(keep)
	a.vals.Trim(keep)
}

// RetainedBytes returns the size of the slab chunks the arena holds on
// to.
func (a *Arena) RetainedBytes() int { return a.hdrs.Cap()*tupleBytes + a.vals.Cap()*valueBytes }

// DecodeTuple decodes one tuple from the front of b, returning the tuple
// and the number of bytes consumed.
func DecodeTuple(b []byte) (*Tuple, int, error) {
	var heap Arena
	return heap.DecodeTuple(b)
}

// DecodeTuple decodes one tuple from the front of b into the arena,
// returning the tuple and the number of bytes consumed.
//
//pjoin:hotpath
func (a *Arena) DecodeTuple(b []byte) (*Tuple, int, error) {
	count, ts, off, err := decodeHeader(b)
	if err != nil {
		return nil, 0, err
	}
	vals := a.vals.Take(count)
	for i := range vals {
		v, n, err := a.strs.Decode(b[off:])
		if err != nil {
			return nil, 0, err
		}
		vals[i] = v
		off += n
	}
	t := &a.hdrs.Take(1)[0]
	t.Values, t.Ts = vals, ts
	return t, off, nil
}

// DecodeKey reads the tuple encoded at the front of b with every check
// DecodeTuple makes, but decodes only its timestamp and its attr-th value
// (a string payload goes to the arena's Strings); the other values are
// checked and skipped. n is the tuple's encoded length. No tuple header or
// values slice is taken from the arena.
//
//pjoin:hotpath
func (a *Arena) DecodeKey(b []byte, attr int) (key value.Value, ts Time, n int, err error) {
	count, ts, off, err := decodeHeader(b)
	if err != nil {
		return value.Value{}, 0, 0, err
	}
	if attr >= count {
		return value.Value{}, 0, 0, errDecodeNoKey
	}
	for i := 0; i < count; i++ {
		var m int
		if i == attr {
			key, m, err = a.strs.Decode(b[off:])
		} else {
			m, err = value.Skip(b[off:])
		}
		if err != nil {
			return value.Value{}, 0, 0, err
		}
		off += m
	}
	return key, ts, off, nil
}

// decodeHeader reads a tuple encoding's value count and timestamp and
// returns them with the offset of its first value.
//
//pjoin:hotpath
func decodeHeader(b []byte) (count int, ts Time, off int, err error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return 0, 0, 0, errDecodeCount
	}
	if n > uint64(len(b)) { // each value takes at least one byte
		return 0, 0, 0, errDecodeManyVals
	}
	if len(b) < sz+8 {
		return 0, 0, 0, errDecodeTimestamp
	}
	return int(n), Time(binary.LittleEndian.Uint64(b[sz:])), sz + 8, nil
}
