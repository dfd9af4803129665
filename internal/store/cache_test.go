package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
	sc, err := c.OpenScan(1)
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
	sc2, err := c.OpenScan(1)
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
// partitions — so `go test -race` can prove the locking. Readers accept
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
					sc, err := c.OpenScan(p)
					if err != nil {
						report(fmt.Errorf("open scan: %w", err))
						return
					}
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
