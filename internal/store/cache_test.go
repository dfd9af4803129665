package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
)

func TestCachedSpillReadHitSkipsInnerIO(t *testing.T) {
	inner := NewMemSpill()
	c := NewCachedSpill(inner, 1<<20)
	// The append lands in an empty partition, so it installs the cache
	// entry directly — the first Read is already a hit.
	if err := c.Append(3, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := c.Read(3)
		if err != nil || string(got) != "hello" {
			t.Fatalf("Read = %q, %v", got, err)
		}
	}
	st, err := inner.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReadOps != 0 {
		t.Errorf("cache hits performed %d inner reads, want 0", st.ReadOps)
	}
	cs := c.CacheStats()
	if cs.Hits != 3 || cs.Misses != 0 {
		t.Errorf("stats = %+v, want 3 hits, 0 misses", cs)
	}
}

func TestCachedSpillMirrorsAppendsAndTruncates(t *testing.T) {
	inner := NewMemSpill()
	c := NewCachedSpill(inner, 1<<20)
	if err := c.Append(0, []byte("aa")); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(0, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(0)
	if err != nil || string(got) != "aabb" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	want, err := inner.Read(0)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cache %q diverges from inner %q (%v)", got, want, err)
	}
	if err := c.Truncate(0); err != nil {
		t.Fatal(err)
	}
	if sz, err := c.Size(0); err != nil || sz != 0 {
		t.Errorf("Size after truncate = %d, %v", sz, err)
	}
	if got, err := c.Read(0); err != nil || len(got) != 0 {
		t.Errorf("Read after truncate = %q, %v", got, err)
	}
}

func TestCachedSpillMissInstallsEntry(t *testing.T) {
	inner := NewMemSpill()
	// Populate behind the cache's back so the first lookup misses.
	if err := inner.Append(5, []byte("cold-data")); err != nil {
		t.Fatal(err)
	}
	c := NewCachedSpill(inner, 1<<20)
	if got, err := c.Read(5); err != nil || string(got) != "cold-data" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if got, err := c.Read(5); err != nil || string(got) != "cold-data" {
		t.Fatalf("Read = %q, %v", got, err)
	}
	cs := c.CacheStats()
	if cs.Misses != 1 || cs.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss then 1 hit", cs)
	}
	st, _ := inner.Stats()
	if st.ReadOps != 1 {
		t.Errorf("inner ReadOps = %d, want 1", st.ReadOps)
	}
}

func TestCachedSpillEvictionRespectsBudget(t *testing.T) {
	inner := NewMemSpill()
	c := NewCachedSpill(inner, 25)
	for p := 0; p < 5; p++ {
		if err := c.Append(p, bytes.Repeat([]byte{byte(p)}, 10)); err != nil {
			t.Fatal(err)
		}
	}
	cs := c.CacheStats()
	if cs.Bytes > 25 {
		t.Errorf("cache holds %d bytes over budget %d", cs.Bytes, cs.Capacity)
	}
	if cs.Evictions == 0 {
		t.Error("no evictions despite exceeding the budget")
	}
	if cs.Entries != 2 {
		t.Errorf("cache holds %d entries, want 2 (2x10 bytes fit in 25)", cs.Entries)
	}
	// Evicted partitions still read correctly (through the inner store).
	for p := 0; p < 5; p++ {
		got, err := c.Read(p)
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(p)}, 10)) {
			t.Errorf("partition %d read %q, %v", p, got, err)
		}
	}
}

func TestCachedSpillOversizedEntryNotCached(t *testing.T) {
	c := NewCachedSpill(NewMemSpill(), 8)
	if err := c.Append(0, []byte("way-too-big-for-cache")); err != nil {
		t.Fatal(err)
	}
	if cs := c.CacheStats(); cs.Entries != 0 || cs.Bytes != 0 {
		t.Errorf("oversized entry cached: %+v", cs)
	}
	if got, err := c.Read(0); err != nil || string(got) != "way-too-big-for-cache" {
		t.Errorf("Read = %q, %v", got, err)
	}
}

func TestCachedSpillScanCompletionInstalls(t *testing.T) {
	inner := NewMemSpill()
	if err := inner.Append(1, []byte("scan-me-in")); err != nil {
		t.Fatal(err)
	}
	c := NewCachedSpill(inner, 1<<20)
	sc, err := c.OpenScan(1, nil)
	if err != nil {
		t.Fatal(err)
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
	sc.Close()
	if string(got) != "scan-me-in" {
		t.Fatalf("scan read %q", got)
	}
	cs := c.CacheStats()
	if cs.Entries != 1 {
		t.Fatalf("completed scan did not install the entry: %+v", cs)
	}
	// The next scan hits and touches no inner I/O.
	before, _ := inner.Stats()
	sc2, err := c.OpenScan(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := nextChunk(sc2, 0)
	if err != nil || string(chunk) != "scan-me-in" {
		t.Fatalf("hit scan read %q, %v", chunk, err)
	}
	sc2.Close()
	after, _ := inner.Stats()
	if after != before {
		t.Errorf("hit scan touched inner I/O: %+v -> %+v", before, after)
	}
	if cs := c.CacheStats(); cs.Hits != 1 {
		t.Errorf("stats = %+v, want 1 hit", cs)
	}
}

func TestCachedSpillHitRatio(t *testing.T) {
	var s CacheStats
	if s.HitRatio() != 0 {
		t.Error("empty stats should report ratio 0")
	}
	s.Hits, s.Misses = 3, 1
	if got := s.HitRatio(); got != 0.75 {
		t.Errorf("HitRatio = %v, want 0.75", got)
	}
}

// TestCachedSpillConcurrent hammers one cache from many goroutines —
// appends, reads, scans, and truncates racing over a handful of
// partitions — so `go test -race` can prove the locking. Each goroutine
// re-arms its one cursor for every scan, as a state does. Readers accept
// ErrScanTruncated (a truncate won the race) but nothing else.
func TestCachedSpillConcurrent(t *testing.T) {
	c := NewCachedSpill(NewMemSpill(), 512)
	defer c.Close()
	const parts = 4
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var prev ScanCursor
			for i := 0; i < 200; i++ {
				p := (g + i) % parts
				switch i % 4 {
				case 0:
					if err := c.Append(p, bytes.Repeat([]byte{byte(i)}, 1+i%32)); err != nil {
						report(fmt.Errorf("append: %w", err))
						return
					}
				case 1:
					if _, err := c.Read(p); err != nil {
						report(fmt.Errorf("read: %w", err))
						return
					}
				case 2:
					sc, err := c.OpenScan(p, prev)
					if err != nil {
						report(fmt.Errorf("open scan: %w", err))
						return
					}
					prev = sc
					for {
						_, err := nextChunk(sc, 8)
						if errors.Is(err, io.EOF) || errors.Is(err, ErrScanTruncated) {
							break
						}
						if err != nil {
							report(fmt.Errorf("next chunk: %w", err))
							sc.Close()
							return
						}
					}
					if _, err := sc.Tail(nil); err != nil && !errors.Is(err, ErrScanTruncated) {
						report(fmt.Errorf("tail: %w", err))
					}
					sc.Close()
				case 3:
					if err := c.Truncate(p); err != nil {
						report(fmt.Errorf("truncate: %w", err))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCachedSpillMissOverCapacityAllocatesNothing: a miss scan over a
// partition the cache can never hold — caching disabled, or a partition
// larger than the capacity — reads through without accumulating it, so
// it allocates nothing per chunk, and counts what a miss always counted.
func TestCachedSpillMissOverCapacityAllocatesNothing(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	for _, capacity := range []int64{0, 1 << 10} {
		inner := NewMemSpill()
		if err := inner.Append(0, payload); err != nil {
			t.Fatal(err)
		}
		c := NewCachedSpill(inner, capacity)
		sc, err := c.OpenScan(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1<<10)
		read := 0
		var before, after runtime.MemStats
		// One P, as testing.AllocsPerRun has it: with an idle P the
		// world ReadMemStats restarts may wake a new OS thread, whose
		// runtime structures would be charged to this meter.
		procs := runtime.GOMAXPROCS(1)
		runtime.ReadMemStats(&before)
		for {
			n, err := sc.Read(buf)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			read += n
		}
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(procs)
		if err := sc.Close(); err != nil {
			t.Fatal(err)
		}
		if objects := after.Mallocs - before.Mallocs; objects != 0 || read != len(payload) {
			t.Errorf("capacity %d: the miss scan read %d bytes in 64 chunks and allocated %d objects, want %d and 0",
				capacity, read, objects, len(payload))
		}
		if cs := c.CacheStats(); cs != (CacheStats{Misses: 1, Capacity: capacity}) {
			t.Errorf("capacity %d: cache stats %+v, want one miss and nothing cached", capacity, cs)
		}
		want := IOStats{WriteOps: 1, BytesWritten: 1 << 16, ReadOps: 1, ChunkReads: 63, BytesRead: 1 << 16}
		if io, err := inner.Stats(); err != nil || io != want {
			t.Errorf("capacity %d: inner I/O %+v (%v), want %+v", capacity, io, err, want)
		}
	}
}

// TestScanCursorRearmAllocatesNothing: a closed cursor handed back to
// OpenScan is re-armed, so a warm open, drain and close allocates
// nothing — on the simulated disk, through the cache while its one
// cursor flips between a hit and a miss, and through a fault wrapper,
// which has the store beneath it re-arm its inner cursor too.
func TestScanCursorRearmAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(*MemSpill) (SpillStore, *CachedSpill)
	}{
		{"mem", func(m *MemSpill) (SpillStore, *CachedSpill) { return m, nil }},
		{"cached", func(m *MemSpill) (SpillStore, *CachedSpill) {
			c := NewCachedSpill(m, 64)
			return c, c
		}},
		{"fault", func(m *MemSpill) (SpillStore, *CachedSpill) {
			c := NewCachedSpill(m, 64)
			return NewFaultSpill(c, FaultRead, 0, nil), c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := NewMemSpill()
			// Written behind the cache: partition 1 fits it, so its first
			// scan is a miss that installs it and every later one a hit;
			// partition 2 never fits, so every scan of it is a miss.
			if err := inner.Append(1, bytes.Repeat([]byte("h"), 16)); err != nil {
				t.Fatal(err)
			}
			if err := inner.Append(2, bytes.Repeat([]byte("m"), 256)); err != nil {
				t.Fatal(err)
			}
			sp, cache := tc.wrap(inner)
			var sc ScanCursor
			buf := make([]byte, 32)
			scan := func(part int) {
				var err error
				if sc, err = sp.OpenScan(part, sc); err != nil {
					t.Fatal(err)
				}
				for {
					if _, err := sc.Read(buf); errors.Is(err, io.EOF) {
						break
					} else if err != nil {
						t.Fatal(err)
					}
				}
				if err := sc.Close(); err != nil {
					t.Fatal(err)
				}
			}
			scan(1)
			scan(2)
			if allocs := testing.AllocsPerRun(20, func() { scan(1); scan(2) }); allocs != 0 {
				t.Errorf("a warm pair of scans allocates %.1f objects, want 0", allocs)
			}
			if cache != nil {
				if cs := cache.CacheStats(); cs.Hits != 21 || cs.Misses != 23 {
					t.Errorf("cache stats %+v, want 21 hits and 23 misses", cs)
				}
			}
		})
	}
}
