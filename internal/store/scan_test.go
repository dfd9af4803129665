package store

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// nextChunk reads the cursor's next at-most-budget bytes into a fresh
// buffer (DefaultScanChunk if budget <= 0).
func nextChunk(sc ScanCursor, budget int) ([]byte, error) {
	if budget <= 0 {
		budget = DefaultScanChunk
	}
	p := make([]byte, budget)
	n, err := sc.Read(p)
	return p[:n], err
}

// scanSuite runs the ScanCursor contract against any implementation.
func scanSuite(t *testing.T, mk func(t *testing.T) SpillStore) {
	t.Run("ChunksCoverSnapshotExactly", func(t *testing.T) {
		sp := mk(t)
		defer sp.Close()
		payload := bytes.Repeat([]byte("0123456789"), 10)
		if err := sp.Append(4, payload); err != nil {
			t.Fatal(err)
		}
		sc, err := sp.OpenScan(4, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		var got []byte
		for {
			chunk, err := nextChunk(sc, 7)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(chunk) == 0 || len(chunk) > 7 {
				t.Fatalf("chunk size %d outside (0, budget]", len(chunk))
			}
			got = append(got, chunk...)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("chunks reassemble to %q, want %q", got, payload)
		}
		// EOF is sticky.
		if _, err := nextChunk(sc, 7); !errors.Is(err, io.EOF) {
			t.Errorf("Read after EOF = %v, want io.EOF", err)
		}
	})

	t.Run("DuplicateSafeUnderAppend", func(t *testing.T) {
		sp := mk(t)
		defer sp.Close()
		if err := sp.Append(0, []byte("old-bytes")); err != nil {
			t.Fatal(err)
		}
		sc, err := sp.OpenScan(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		first, err := nextChunk(sc, 4)
		if err != nil {
			t.Fatal(err)
		}
		// An append racing with the scan must not leak into Read...
		if err := sp.Append(0, []byte("NEW")); err != nil {
			t.Fatal(err)
		}
		var got []byte
		got = append(got, first...)
		for {
			chunk, err := nextChunk(sc, 4)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, chunk...)
		}
		if string(got) != "old-bytes" {
			t.Errorf("snapshot read %q, want %q", got, "old-bytes")
		}
		// ...and is exactly what Tail returns.
		tail, err := sc.Tail(nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(tail) != "NEW" {
			t.Errorf("Tail = %q, want %q", tail, "NEW")
		}
	})

	t.Run("EmptyPartitionScansToEOF", func(t *testing.T) {
		sp := mk(t)
		defer sp.Close()
		sc, err := sp.OpenScan(9, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		if _, err := nextChunk(sc, 0); !errors.Is(err, io.EOF) {
			t.Errorf("Read on empty partition = %v, want io.EOF", err)
		}
		tail, err := sc.Tail(nil)
		if err != nil || tail != nil {
			t.Errorf("Tail on empty partition = %q, %v", tail, err)
		}
	})

	// A store may reuse a truncated partition's memory for the bytes
	// appended after it (MemSpill keeps the extent), so the refill is
	// checked at the old length and past it: the stale cursor still
	// fails, a fresh one reads only the new bytes, and nothing handed
	// out earlier changes under a later Append.
	t.Run("TruncateInvalidatesCursor", func(t *testing.T) {
		const doomed = "doomed-partition"
		for _, refill := range []string{"REFILLED-BYTES!!", "refilled-and-longer-than-the-first"} {
			sp := mk(t)
			defer sp.Close()
			if err := sp.Append(2, []byte(doomed)); err != nil {
				t.Fatal(err)
			}
			whole, err := sp.Read(2)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := sp.OpenScan(2, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer sc.Close()
			first, err := nextChunk(sc, 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := sp.Truncate(2); err != nil {
				t.Fatal(err)
			}
			stale := func(when string) {
				t.Helper()
				if _, err := nextChunk(sc, 4); !errors.Is(err, ErrScanTruncated) {
					t.Errorf("%s: Read = %v, want ErrScanTruncated", when, err)
				}
				if _, err := sc.Tail(nil); !errors.Is(err, ErrScanTruncated) {
					t.Errorf("%s: Tail = %v, want ErrScanTruncated", when, err)
				}
			}
			stale("after Truncate")
			if err := sp.Append(2, []byte(refill)); err != nil {
				t.Fatal(err)
			}
			stale("after refill of " + refill)
			if n, err := sp.Size(2); n != int64(len(refill)) || err != nil {
				t.Errorf("Size after refill of %q = %d, %v; want %d", refill, n, err, len(refill))
			}
			sc2, err := sp.OpenScan(2, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer sc2.Close()
			var got []byte
			for {
				chunk, err := nextChunk(sc2, 4)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, chunk...)
			}
			if tail, err := sc2.Tail(nil); string(got) != refill || tail != nil || err != nil {
				t.Errorf("fresh cursor read %q, tail %q (%v); want %q and no tail", got, tail, err, refill)
			}
			again, err := sp.Read(2)
			if err != nil {
				t.Fatal(err)
			}
			if err := sp.Append(2, []byte("+appended")); err != nil {
				t.Fatal(err)
			}
			if string(whole) != doomed || string(first) != doomed[:4] || string(again) != refill {
				t.Errorf("earlier reads changed under later appends: %q, %q, %q; want %q, %q, %q",
					whole, first, again, doomed, doomed[:4], refill)
			}
		}
	})

	t.Run("ReuseRearmsClosedCursor", func(t *testing.T) {
		sp := mk(t)
		defer sp.Close()
		if err := sp.Append(3, []byte("first")); err != nil {
			t.Fatal(err)
		}
		if err := sp.Append(6, []byte("second-partition")); err != nil {
			t.Fatal(err)
		}
		var sc ScanCursor
		for _, tc := range []struct {
			part int
			want string
		}{{3, "first"}, {6, "second-partition"}, {3, "first"}} {
			prev := sc
			var err error
			if sc, err = sp.OpenScan(tc.part, prev); err != nil {
				t.Fatal(err)
			}
			if prev != nil && sc != prev {
				t.Errorf("partition %d: OpenScan allocated a cursor instead of re-arming the closed one", tc.part)
			}
			var got []byte
			for {
				chunk, err := nextChunk(sc, 4)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, chunk...)
			}
			if tail, err := sc.Tail(nil); string(got) != tc.want || err != nil || tail != nil {
				t.Errorf("re-armed cursor over partition %d read %q, tail %q (%v); want %q and no tail",
					tc.part, got, tail, err, tc.want)
			}
			if err := sc.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("ClosedCursorErrors", func(t *testing.T) {
		sp := mk(t)
		defer sp.Close()
		if err := sp.Append(1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		sc, err := sp.OpenScan(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := nextChunk(sc, 0); err == nil || errors.Is(err, io.EOF) {
			t.Errorf("Read on closed cursor = %v, want error", err)
		}
	})
}

func TestMemSpillScan(t *testing.T) {
	scanSuite(t, func(t *testing.T) SpillStore { return NewMemSpill() })
}

func TestFileSpillScan(t *testing.T) {
	scanSuite(t, func(t *testing.T) SpillStore {
		fs, err := NewFileSpill(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return fs
	})
}

func TestCachedSpillScan(t *testing.T) {
	scanSuite(t, func(t *testing.T) SpillStore {
		return NewCachedSpill(NewMemSpill(), 1<<20)
	})
}

func TestCachedSpillScanUncached(t *testing.T) {
	// The miss path (delegating cursor) must satisfy the same contract.
	scanSuite(t, func(t *testing.T) SpillStore {
		return NewCachedSpill(NewMemSpill(), 0)
	})
}

func TestScanStatsCounting(t *testing.T) {
	sp := NewMemSpill()
	payload := bytes.Repeat([]byte("ab"), 50) // 100 bytes
	if err := sp.Append(0, payload); err != nil {
		t.Fatal(err)
	}
	sc, err := sp.OpenScan(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for {
		if _, err := nextChunk(sc, 40); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	st, err := sp.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// 3 chunks of <=40 bytes: the first pays the seek (ReadOp), the two
	// continuations are ChunkReads; all bytes are counted.
	if st.ReadOps != 1 || st.ChunkReads != 2 {
		t.Errorf("ReadOps=%d ChunkReads=%d, want 1 and 2", st.ReadOps, st.ChunkReads)
	}
	if st.BytesRead != 100 {
		t.Errorf("BytesRead=%d, want 100", st.BytesRead)
	}
}

// diskScanAll drains a DiskScan with the given byte budget and decodes
// every record.
func diskScanAll(t *testing.T, ds *DiskScan, budget int) []*StoredTuple {
	t.Helper()
	out := diskParseAll(t, ds, budget)
	for j := range out {
		if err := ds.Decode(j); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// diskParseAll drains a DiskScan with the given byte budget, decoding
// nothing past the records' keys.
func diskParseAll(t *testing.T, ds *DiskScan, budget int) []*StoredTuple {
	t.Helper()
	var out []*StoredTuple
	for i := 0; ; i++ {
		var done bool
		var err error
		out, done, err = ds.Next(budget, out)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return out
		}
		if i > 1<<20 {
			t.Fatal("DiskScan did not terminate")
		}
	}
}

// ownStored copies scanned tuples out of the state's decode arena, so
// they outlive the next scan.
func ownStored(in []*StoredTuple) []*StoredTuple {
	out := make([]*StoredTuple, len(in))
	for i, s := range in {
		t := *s.T
		t.Values = append([]value.Value(nil), t.Values...)
		c := *s
		c.T = &t
		out[i] = &c
	}
	return out
}

// readDisk returns bucket i's whole on-disk portion in spill order (nil
// if it has none): one unbounded read-only scan, copied out of the arena.
func readDisk(t *testing.T, st *State, i int) []*StoredTuple {
	t.Helper()
	ds, err := st.OpenDiskScan(i)
	if err != nil {
		t.Fatal(err)
	}
	if ds == nil {
		return nil
	}
	out := ownStored(diskScanAll(t, ds, math.MaxInt))
	if err := st.FinishDiskScan(ds, nil, false); err != nil {
		t.Fatal(err)
	}
	return out
}

// rewriteDisk replaces bucket i's on-disk portion with the records keep
// accepts (by record number and decoded tuple; nil keeps none): one
// unbounded scan finished with a rewrite.
func rewriteDisk(t *testing.T, st *State, i int, keep func(j int, s *StoredTuple) bool) {
	t.Helper()
	ds, err := st.OpenDiskScan(i)
	if err != nil || ds == nil {
		t.Fatalf("bucket %d: no disk portion to rewrite (err %v)", i, err)
	}
	var kept []int
	for j, s := range diskScanAll(t, ds, math.MaxInt) {
		if keep != nil && keep(j, s) {
			kept = append(kept, j)
		}
	}
	if err := st.FinishDiskScan(ds, kept, true); err != nil {
		t.Fatal(err)
	}
}

func TestDiskScanMatchesReadDisk(t *testing.T) {
	st := mkState(t, 4)
	for i := int64(0); i < 40; i++ {
		if _, err := st.Insert(tup(t, i, stream.Time(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := st.SpillBucket(i, 100); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		want := readDisk(t, st, i)
		// A 5-byte budget is smaller than any record, forcing the
		// carry-over reassembly path on every chunk.
		ds, err := st.OpenDiskScan(i)
		if err != nil {
			t.Fatal(err)
		}
		got := diskScanAll(t, ds, 5)
		if err := st.FinishDiskScan(ds, nil, false); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("bucket %d: scan read %d tuples, ReadDisk %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j].PID != want[j].PID || got[j].DTS != want[j].DTS ||
				!got[j].T.Values[0].Equal(want[j].T.Values[0]) || got[j].T.Ts != want[j].T.Ts {
				t.Errorf("bucket %d tuple %d: scan %+v vs ReadDisk %+v", i, j, got[j], want[j])
			}
		}
	}
}

func TestOpenDiskScanEmptyBucket(t *testing.T) {
	st := mkState(t, 4)
	ds, err := st.OpenDiskScan(2)
	if err != nil {
		t.Fatal(err)
	}
	if ds != nil {
		t.Error("OpenDiskScan on empty bucket should return nil")
	}
}

func TestFinishDiskScanRewritePreservesTail(t *testing.T) {
	st := mkState(t, 1)
	for i := int64(0); i < 10; i++ {
		if _, err := st.Insert(tup(t, i, stream.Time(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.SpillBucket(0, 50); err != nil {
		t.Fatal(err)
	}
	ds, err := st.OpenDiskScan(0)
	if err != nil {
		t.Fatal(err)
	}
	all := diskScanAll(t, ds, 16)
	// Concurrent spill while the scan is open: these tuples must survive
	// the rewrite untouched.
	for i := int64(100); i < 103; i++ {
		if _, err := st.Insert(tup(t, i, stream.Time(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.SpillBucket(0, 200); err != nil {
		t.Fatal(err)
	}
	// Keep only even keys from the snapshot.
	var keep []int
	for j, s := range all {
		if k := s.T.Values[0].IntVal(); k%2 == 0 {
			keep = append(keep, j)
		}
	}
	if err := st.FinishDiskScan(ds, keep, true); err != nil {
		t.Fatal(err)
	}
	got := readDisk(t, st, 0)
	if want := len(keep) + 3; len(got) != want {
		t.Fatalf("after rewrite: %d disk tuples, want %d", len(got), want)
	}
	// Snapshot keeps first (in order), then the tail spill.
	for j, s := range got {
		k := s.T.Values[0].IntVal()
		if j < len(keep) {
			if k%2 != 0 || k >= 100 {
				t.Errorf("kept tuple %d has key %d", j, k)
			}
		} else if k < 100 {
			t.Errorf("tail tuple %d has key %d, want >= 100", j, k)
		}
	}
	stats := st.Stats()
	if stats.DiskTuples != len(got) {
		t.Errorf("accounting DiskTuples=%d, want %d", stats.DiskTuples, len(got))
	}
}

func TestFinishDiskScanNoRewriteLeavesDiskAlone(t *testing.T) {
	st := mkState(t, 1)
	for i := int64(0); i < 6; i++ {
		if _, err := st.Insert(tup(t, i, stream.Time(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.SpillBucket(0, 10); err != nil {
		t.Fatal(err)
	}
	before := st.Stats()
	ds, err := st.OpenDiskScan(0)
	if err != nil {
		t.Fatal(err)
	}
	_ = diskScanAll(t, ds, 32)
	if err := st.FinishDiskScan(ds, nil, false); err != nil {
		t.Fatal(err)
	}
	if st.Stats() != before {
		t.Errorf("read-only scan changed accounting: %+v vs %+v", st.Stats(), before)
	}
	got := readDisk(t, st, 0)
	if len(got) != 6 {
		t.Errorf("disk holds %d tuples after read-only scan, want 6", len(got))
	}
}
