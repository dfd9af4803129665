package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"pjoin/internal/stream"
	"pjoin/internal/value"
	"pjoin/internal/vtime"
)

// readPart reads the partition's whole contents through one scan cursor.
func readPart(s SpillStore, part int) ([]byte, error) {
	sc, err := s.OpenScan(part, nil)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	return io.ReadAll(sc)
}

// spillSuite runs the SpillStore contract against any implementation.
func spillSuite(t *testing.T, mk func(t *testing.T) SpillStore) {
	t.Run("empty partition reads empty", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		got, err := readPart(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("fresh partition has %d bytes", len(got))
		}
	})

	t.Run("append accumulates", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		if err := s.Append(0, []byte("hello ")); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(0, []byte("world")); err != nil {
			t.Fatal(err)
		}
		got, err := readPart(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte("hello world")) {
			t.Errorf("Read = %q", got)
		}
	})

	t.Run("partitions are independent", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		s.Append(1, []byte("one"))
		s.Append(2, []byte("two"))
		got1, _ := readPart(s, 1)
		got2, _ := readPart(s, 2)
		if string(got1) != "one" || string(got2) != "two" {
			t.Errorf("partition mixup: %q %q", got1, got2)
		}
	})

	t.Run("truncate clears one partition", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		s.Append(1, []byte("one"))
		s.Append(2, []byte("two"))
		if err := s.Truncate(1); err != nil {
			t.Fatal(err)
		}
		if got, _ := readPart(s, 1); len(got) != 0 {
			t.Errorf("partition 1 not empty after truncate: %q", got)
		}
		if got, _ := readPart(s, 2); string(got) != "two" {
			t.Errorf("truncate leaked to partition 2: %q", got)
		}
		// Append after truncate works.
		s.Append(1, []byte("new"))
		if got, _ := readPart(s, 1); string(got) != "new" {
			t.Errorf("append after truncate: %q", got)
		}
	})

	t.Run("stats count traffic", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		s.Append(0, make([]byte, 100))
		s.Append(0, make([]byte, 50))
		readPart(s, 0)
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.WriteOps != 2 || st.BytesWritten != 150 {
			t.Errorf("write stats = %+v", st)
		}
		if st.ReadOps != 1 || st.BytesRead != 150 {
			t.Errorf("read stats = %+v", st)
		}
	})

	t.Run("closed store errors", func(t *testing.T) {
		// Every method must answer "closed" uniformly — including Stats,
		// which historically leaked a zero value instead.
		s := mk(t)
		s.Append(0, []byte("x"))
		s.Close()
		if err := s.Append(0, []byte("x")); err == nil {
			t.Error("Append after Close should error")
		}
		if _, err := s.OpenScan(0, nil); err == nil {
			t.Error("OpenScan after Close should error")
		}
		if err := s.Truncate(0); err == nil {
			t.Error("Truncate after Close should error")
		}
		if _, err := s.Stats(); err == nil {
			t.Error("Stats after Close should error")
		}
	})
}

func TestMemSpill(t *testing.T) {
	spillSuite(t, func(t *testing.T) SpillStore { return NewMemSpill() })
}

// TestMemSpillReadReturnsCopy: a cursor's Read copies into the caller's
// buffer, so writing into what it filled leaves the store's bytes alone.
func TestMemSpillReadReturnsCopy(t *testing.T) {
	s := NewMemSpill()
	defer s.Close()
	s.Append(0, []byte("abc"))
	sc, err := s.OpenScan(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := sc.Read(buf)
	if err != nil || string(buf[:n]) != "abc" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	buf[0] = 'X'
	if again, _ := readPart(s, 0); string(again) != "abc" {
		t.Errorf("store reads %q after the caller wrote its buffer: Read must copy", again)
	}
}

// modelScan is a cursor under test beside what the flat model says it
// must return: the partition's bytes when it opened, how far it has
// read, and the partition generation it belongs to.
type modelScan struct {
	sc      ScanCursor
	part    int
	snap    []byte
	off     int
	gen     int
	started bool
}

// TestMemSpillAgreesWithModel holds MemSpill to a map[int][]byte model
// over 200 seeded sequences of appends of 0–3 KiB (so they cross block
// edges), truncates, scans opened (re-arming closed cursors), reads into
// buffers of 1 B to 4 KiB, tails after appends that race a scan, and
// closes. Every read and tail must return the model's bytes, a cursor
// whose partition was truncated since it opened must fail with
// ErrScanTruncated, and after every operation the I/O counters must be
// the model's.
func TestMemSpillAgreesWithModel(t *testing.T) {
	const parts, ops = 5, 300
	for seed := uint64(1); seed <= 200; seed++ {
		rng := vtime.NewRNG(seed)
		sp := NewMemSpill()
		model, gens := map[int][]byte{}, map[int]int{}
		var want IOStats
		var open []*modelScan
		var spare ScanCursor // a closed cursor for the next OpenScan to re-arm
		fail := func(op int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, op %d: %s", seed, op, fmt.Sprintf(format, args...))
		}
		for op := 0; op < ops; op++ {
			part := rng.Intn(parts)
			var c *modelScan
			if len(open) > 0 {
				c = open[rng.Intn(len(open))]
			}
			switch r := rng.Intn(20); {
			case r < 8:
				data := make([]byte, rng.Intn(3<<10+1))
				for i := range data {
					data[i] = byte(rng.Uint64())
				}
				if err := sp.Append(part, data); err != nil {
					fail(op, "Append: %v", err)
				}
				model[part] = append(model[part], data...)
				want.WriteOps++
				want.BytesWritten += int64(len(data))
			case r < 10:
				if err := sp.Truncate(part); err != nil {
					fail(op, "Truncate: %v", err)
				}
				model[part] = nil
				gens[part]++
			case r < 12 && len(open) < 4:
				sc, err := sp.OpenScan(part, spare)
				if err != nil {
					fail(op, "OpenScan: %v", err)
				}
				if spare != nil && sc != spare {
					fail(op, "OpenScan did not re-arm the closed cursor")
				}
				spare = nil
				open = append(open, &modelScan{sc: sc, part: part, snap: slices.Clone(model[part]), gen: gens[part]})
			case r < 17 && c != nil:
				buf := make([]byte, 1+rng.Intn(4<<10))
				n, err := c.sc.Read(buf)
				switch {
				case gens[c.part] != c.gen:
					if !errors.Is(err, ErrScanTruncated) {
						fail(op, "Read of a truncated partition = %d, %v; want ErrScanTruncated", n, err)
					}
				case c.off == len(c.snap):
					if n != 0 || err != io.EOF {
						fail(op, "Read at the snapshot's end = %d, %v; want io.EOF", n, err)
					}
				default:
					w := min(len(buf), len(c.snap)-c.off)
					if err != nil || n != w || !bytes.Equal(buf[:n], c.snap[c.off:c.off+w]) {
						fail(op, "Read into %d B = %d, %v; want %d B at offset %d of the snapshot", len(buf), n, err, w, c.off)
					}
					c.off += n
					want.countScanRead(&c.started, n)
				}
			case r < 19 && c != nil:
				prefix := []byte("dst")[:rng.Intn(4)]
				got, err := c.sc.Tail(prefix)
				if gens[c.part] != c.gen {
					if !errors.Is(err, ErrScanTruncated) {
						fail(op, "Tail of a truncated partition: %v, want ErrScanTruncated", err)
					}
					break
				}
				tail := model[c.part][len(c.snap):]
				if err != nil || !bytes.Equal(got, append(slices.Clone(prefix), tail...)) {
					fail(op, "Tail = %d B, %v; want the %d B appended since the open after %q", len(got), err, len(tail), prefix)
				}
				if len(tail) > 0 {
					want.ChunkReads++
					want.BytesRead += int64(len(tail))
				}
			case c != nil:
				if err := c.sc.Close(); err != nil {
					fail(op, "Close: %v", err)
				}
				spare = c.sc
				open = slices.DeleteFunc(open, func(o *modelScan) bool { return o == c })
			}
			if got, err := sp.Stats(); err != nil || got != want {
				fail(op, "Stats = %+v, %v; the model counts %+v", got, err, want)
			}
		}
		for part := 0; part < parts; part++ {
			if got, err := readPart(sp, part); err != nil || !bytes.Equal(got, model[part]) {
				t.Fatalf("seed %d: partition %d reads %d B (%v), the model holds %d B", seed, part, len(got), err, len(model[part]))
			}
		}
	}
}

// TestMemSpillHoldsPeakLive: a store allocates at most its peak live
// bytes plus one partly filled block per partition and one chunk, not
// the sum of its partitions' high waters. 64 partitions take
// 40–400-byte spills, most of them aimed at one hot partition that moves
// on every 100 rounds, and every round rewrites one partition to a
// quarter of itself (Truncate, then Append), as a pass that drops records
// does; a partition the hot spot leaves is rewritten to an eighth. A
// store that kept each partition's largest extent would hold the sum of
// the high waters, which the log line prints beside the bound.
func TestMemSpillHoldsPeakLive(t *testing.T) {
	const parts, rounds = 64, 20_000
	rng := vtime.NewRNG(1)
	data := make([]byte, 64<<10)
	sp := NewMemSpill()
	for p := 0; p < parts; p++ {
		sp.Truncate(p) // the partition map holds every partition before the count starts
	}
	size, high := make([]int, parts), make([]int, parts)
	live, peak := 0, 0
	put := func(p, n int) {
		if err := sp.Append(p, data[:n]); err != nil {
			t.Fatal(err)
		}
		size[p] += n
		live += n
		high[p] = max(high[p], size[p])
		peak = max(peak, live)
	}
	rewrite := func(p, keep int) {
		if err := sp.Truncate(p); err != nil {
			t.Fatal(err)
		}
		live -= size[p]
		size[p] = 0
		put(p, keep)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for r := 0; r < rounds; r++ {
		hot := r / 100 % parts
		if r%100 == 0 && r > 0 {
			old := (hot + parts - 1) % parts
			rewrite(old, size[old]/8)
		}
		for i := 0; i < 4; i++ {
			p := rng.Intn(parts)
			if rng.Intn(4) > 0 {
				p = hot
			}
			put(p, 40+rng.Intn(361))
		}
		p := rng.Intn(parts)
		rewrite(p, size[p]/4)
	}
	runtime.ReadMemStats(&ms)
	allocated := int(ms.TotalAlloc - before)
	sumHigh := 0
	for _, h := range high {
		sumHigh += h
	}
	block := int(unsafe.Sizeof(spillBlock{}))
	bound := (peak/spillBlockSize + parts + spillChunkBlocks) * block
	t.Logf("MemSpill holds %d B for a peak of %d B live (bound %d B; the partitions' high waters sum to %d B)",
		allocated, peak, bound, sumHigh)
	if allocated > bound {
		t.Errorf("64-partition churn allocated %d B, above the bound of %d B for a peak of %d B live", allocated, bound, peak)
	}
	if sumHigh <= 2*bound {
		t.Errorf("the high waters sum to %d B, within twice the bound of %d B: the churn does not tell the two designs apart", sumHigh, bound)
	}
}

// TestTruncatePoisonsFreedBlocks: the blocks Truncate frees still hold
// their records in an ordinary build, so a read of one would parse a
// plausible stale record; built with pjoin_poison (`make oracle-poison`)
// they are zeroed, and the same parse fails with errRecordLen.
func TestTruncatePoisonsFreedBlocks(t *testing.T) {
	sp := NewMemSpill()
	s := StoredTuple{T: stream.MustTuple(testSchema, 5, value.Int(7), value.Str("stale")), ATS: 5, DTS: 9}
	rec := appendStored(nil, &s)
	if err := sp.Append(0, rec); err != nil {
		t.Fatal(err)
	}
	freed := sp.parts[0].head
	if err := sp.Truncate(0); err != nil {
		t.Fatal(err)
	}
	var a scanArena
	r, _, err := a.parseStored(freed.data[:len(rec)], 0)
	if poisoned() {
		if !errors.Is(err, errRecordLen) {
			t.Errorf("a poisoned freed block parses as %+v, %v; want errRecordLen", r, err)
		}
	} else if err != nil || !r.key.Equal(value.Int(7)) {
		t.Errorf("an unpoisoned freed block parses as %+v, %v; want the stale record", r, err)
	}
}
