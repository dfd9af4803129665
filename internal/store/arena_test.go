package store

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// decodeStored parses the spill record at the front of b to its key
// (attribute 0) and then decodes its tuple in full, into a: the two steps
// a scan takes for a record it decodes. A nil a is a throwaway (zero)
// arena, which decodes into ordinary heap allocations. A record the parse
// accepts must decode.
func decodeStored(t *testing.T, a *scanArena, b []byte) (*StoredTuple, value.Value, int, error) {
	if a == nil {
		a = new(scanArena)
	}
	r, n, err := a.parseStored(b, 0)
	if err != nil {
		return nil, value.Value{}, 0, err
	}
	tu, tn, err := a.tuples.DecodeTuple(b[r.tup:r.end])
	if err != nil || tn != r.end-r.tup {
		t.Fatalf("a parsed record does not decode: %d of %d bytes, %v", tn, r.end-r.tup, err)
	}
	r.s.T = tu
	return r.s, r.key, n, nil
}

// FuzzDecodeStored is FuzzDecodeTupleArena one layer up: parsing a spill
// record into the state's recycling arena, then decoding it, accepts and
// rejects exactly what the throwaway arena does (a short record
// included), consumes the same bytes, yields the same stored tuple and
// key, and re-encodes to the same bytes — on fresh slabs, behind an
// earlier record, and on recycled ones. Whatever the parse accepts
// decodes, and its key is the decoded tuple's attribute 0.
func FuzzDecodeStored(f *testing.F) {
	rec := func(pid punct.PID, dts stream.Time, vals ...value.Value) []byte {
		return appendStored(nil, &StoredTuple{T: &stream.Tuple{Values: vals, Ts: 5}, PID: pid, ATS: 6, DTS: dts})
	}
	good := rec(3, 7, value.Int(1), value.Str("payload"))
	f.Add(good)
	f.Add(good[:len(good)-1])                                // short record
	f.Add(append([]byte{byte(len(good))}, good[1:]...))      // length prefix one too long
	f.Add(rec(punct.NoPID, InMemory, value.Bool(true)))      // widest DTS
	f.Add([]byte{0})                                         // zero body length
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})        // implausible body length
	f.Add([]byte{3, 0x80, 0x80, 0x80})                       // pid varint runs off the record
	f.Add(append(rec(1, 2, value.Int(9)), 0xaa, 0xbb))       // trailing bytes are the next record's
	f.Add([]byte{12, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0}) // tuple shorter than its record
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantKey, wantN, wantErr := decodeStored(t, nil, b)
		if wantErr == nil && !wantKey.Equal(want.T.Values[0]) {
			t.Fatalf("parsed key %v, decoded tuple %v", wantKey, want.T)
		}
		a := newScanArena()
		for round := 0; round < 3; round++ {
			got, key, n, err := decodeStored(t, &a, b)
			if err != wantErr || n != wantN {
				t.Fatalf("round %d: arena decode n=%d err=%v; throwaway arena n=%d err=%v", round, n, err, wantN, wantErr)
			}
			if err == nil {
				if got.PID != want.PID || got.ATS != want.ATS || got.DTS != want.DTS || got.T.Ts != want.T.Ts ||
					fmt.Sprint(got.T.Values) != fmt.Sprint(want.T.Values) || !key.Equal(wantKey) {
					t.Fatalf("round %d: arena decoded %+v %v, throwaway arena %+v %v", round, got, got.T, want, want.T)
				}
				if re, plain := appendStored(nil, got), appendStored(nil, want); !bytes.Equal(re, plain) {
					t.Fatalf("round %d: arena record re-encodes to %x, throwaway to %x", round, re, plain)
				}
			}
			if round == 1 {
				a.reset()
				if err == nil && got.T != recycled.T {
					t.Fatalf("reset left a decoded record readable: %+v", got)
				}
			}
		}
	})
}

// scanRetained returns the bytes of scan memory the state currently
// holds for reuse: arena slab chunks, record list, read buffer, encode
// scratch.
func (st *State) scanRetained() int {
	return st.arena.stored.Cap()*int(unsafe.Sizeof(StoredTuple{})) + st.arena.tuples.RetainedBytes() +
		cap(st.scan.recs)*int(unsafe.Sizeof(diskRec{})) + cap(st.scan.buf) + cap(st.enc)
}

// The retention bound is stated in bytes, from the element sizes. The
// StoredTuple chunk is the most wrappers, with the 8 B malloc header,
// that fit the 8,192 B size class, and one chunk of each kind in the
// decode arena, stream.ArenaChunkBytes, is room for as many tuples of
// width 4: what "room for 8,160 tuples" above scanRetainBytes counts.
func TestArenaElementSizes(t *testing.T) {
	if s := unsafe.Sizeof(StoredTuple{}); storedChunk*s+8 > 8192 || (storedChunk+1)*s+8 <= 8192 {
		t.Errorf("StoredTuple is %d bytes: a chunk of %d is %d B with its malloc header, not the 8,192 B class filled", s, storedChunk, storedChunk*s+8)
	}
	per := int(unsafe.Sizeof(stream.Tuple{}) + 4*unsafe.Sizeof(value.Value{}))
	if stream.ArenaChunkBytes != storedChunk*per {
		t.Errorf("stream.ArenaChunkBytes is %d, want %d tuples of width 4 at %d B each", stream.ArenaChunkBytes, storedChunk, per)
	}
	enc := stream.MustTuple(stream.MustSchema("S",
		stream.Field{Name: "k", Kind: value.KindInt}, stream.Field{Name: "a", Kind: value.KindInt},
		stream.Field{Name: "b", Kind: value.KindFloat}, stream.Field{Name: "c", Kind: value.KindString},
	), 1, value.Int(1), value.Int(2), value.Float(3), value.Str("four")).AppendBinary(nil)
	a := stream.NewArena()
	for i := 0; i <= storedChunk; i++ {
		if _, _, err := a.DecodeTuple(enc); err != nil {
			t.Fatal(err)
		}
		if want := stream.ArenaChunkBytes * (1 + i/storedChunk); a.RetainedBytes() != want {
			t.Fatalf("after %d tuples of width 4 the arena retains %d B, want %d", i+1, a.RetainedBytes(), want)
		}
	}
}

// spillKeys inserts one tuple per key, with a payload naming the key, and
// spills every bucket.
func spillKeys(t *testing.T, st *State, keys int) {
	t.Helper()
	for k := 0; k < keys; k++ {
		tu := stream.MustTuple(testSchema, stream.Time(k+1), value.Int(int64(k)), value.Str(fmt.Sprintf("payload-%d", k)))
		if _, err := st.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < st.NumBuckets(); i++ {
		if _, err := st.SpillBucket(i, stream.Time(keys+1)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanArenaContract pins the lifetime DiskScan.Next documents: a
// scan's tuples stay readable through its FinishDiskScan and are zeroed
// when the state's next scan opens — loudly (nil T, or the poison under
// the pjoin_poison tag), not recycled under the reader — while attribute values copied out of them stay good. A
// state has one scan at a time, and a scan finishes once.
func TestScanArenaContract(t *testing.T) {
	st := mkState(t, 2)
	spillKeys(t, st, 600)

	ds, err := st.OpenDiskScan(0)
	if err != nil || ds == nil {
		t.Fatalf("open bucket 0: %v, %v", ds, err)
	}
	if _, err := st.OpenDiskScan(1); err == nil || !strings.Contains(err.Error(), "still open") {
		t.Errorf("second open with a scan in flight: %v, want a still-open error", err)
	}
	first := diskScanAll(t, ds, 300) // many reads, records split across them
	if len(first) != st.Bucket(0).DiskTuples {
		t.Fatalf("scan read %d tuples, bucket has %d", len(first), st.Bucket(0).DiskTuples)
	}
	if err := st.FinishDiskScan(ds, nil, false); err != nil {
		t.Fatal(err)
	}
	if err := st.FinishDiskScan(ds, nil, false); err == nil {
		t.Error("finishing a scan twice succeeded")
	}
	copied := make([][]value.Value, len(first))
	for i, s := range first {
		key := s.T.Values[0].IntVal()
		if got, want := s.T.Values[1].StrVal(), fmt.Sprintf("payload-%d", key); got != want || s.DTS != 601 {
			t.Fatalf("tuple %d after finish: payload %q want %q, DTS %d", i, got, want, s.DTS)
		}
		copied[i] = append([]value.Value(nil), s.T.Values...)
	}
	held := first[0].T

	ds2, err := st.OpenDiskScan(1)
	if err != nil || ds2 == nil {
		t.Fatalf("open bucket 1: %v, %v", ds2, err)
	}
	for i, s := range first {
		if s.T != recycled.T || s.PID != recycled.PID || s.DTS != recycled.DTS {
			t.Fatalf("scan-1 tuple %d survived the next open: %+v", i, s)
		}
	}
	if held.Values != nil || held.Ts != 0 {
		t.Errorf("scan-1 tuple header survived the next open: %v", held)
	}
	second := diskScanAll(t, ds2, math.MaxInt)
	if err := st.FinishDiskScan(ds2, nil, false); err != nil {
		t.Fatal(err)
	}
	if second[0] != first[0] {
		t.Error("scan 2 did not reuse scan 1's slabs")
	}
	for i, vals := range copied {
		if got, want := vals[1].StrVal(), fmt.Sprintf("payload-%d", vals[0].IntVal()); got != want {
			t.Fatalf("copied values %d read %q after the arena was reused, want %q", i, got, want)
		}
	}
	for _, s := range second {
		if st.BucketOf(s.T.Values[0]) != 1 {
			t.Fatalf("bucket 1 scan returned %v", s.T)
		}
	}
}

// TestScanRetentionBound: a 50,000-tuple bucket makes its scan grow the
// arena, the read buffer and (on rewrite) the encode scratch far past
// what a state keeps; FinishDiskScan gives the excess back, and the
// trimmed arena still serves the next scan.
func TestScanRetentionBound(t *testing.T) {
	const tuples = 50000
	st := mkState(t, 1)
	spillKeys(t, st, tuples)
	for _, rewrite := range []bool{false, true} {
		ds, err := st.OpenDiskScan(0)
		if err != nil {
			t.Fatal(err)
		}
		got := diskScanAll(t, ds, math.MaxInt)
		if len(got) != tuples {
			t.Fatalf("scan read %d tuples, want %d", len(got), tuples)
		}
		if during := st.scanRetained(); during <= scanRetainBytes {
			t.Fatalf("scan of %d tuples holds %d bytes, not above the %d bound: the test proves nothing", tuples, during, scanRetainBytes)
		}
		all := make([]int, len(got))
		for j := range all {
			all[j] = j
		}
		if err := st.FinishDiskScan(ds, all, rewrite); err != nil {
			t.Fatal(err)
		}
		if after := st.scanRetained(); after > scanRetainBytes {
			t.Errorf("rewrite=%v: state retains %d bytes of scan memory after finish, bound %d", rewrite, after, scanRetainBytes)
		}
		if last := got[tuples-1]; last.T == nil || last.T.Values[0].IntVal() != tuples-1 {
			t.Errorf("rewrite=%v: finish invalidated the scan's tuples: %+v", rewrite, last)
		}
	}
	if n := len(readDisk(t, st, 0)); n != tuples {
		t.Errorf("scan after the trim and rewrite read %d tuples, want %d", n, tuples)
	}
}
