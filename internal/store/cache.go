package store

import (
	"fmt"
	"io"
	"sync"
)

// CacheStats summarises a CachedSpill's behaviour. Hits and Misses count
// Read and OpenScan lookups; Evictions counts entries dropped to respect
// the byte budget.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Bytes     int64
	Capacity  int64
}

// HitRatio returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// CachedSpill wraps a SpillStore with an LRU block cache over whole
// partitions, so hot spilled partitions are re-joined from memory instead
// of paying disk reads on every pass.
//
// The invariant is that a cached entry always mirrors its partition's
// full contents: entries are installed by a full Read, by an Append into
// an empty partition (the shape every bucket spill and rewrite has), or
// by a scan that ran to completion; they are extended in place by later
// Appends and dropped on Truncate or eviction. A Read or OpenScan served
// from the cache performs no inner I/O and counts nothing in IOStats —
// that saved traffic is the cache's benefit, and CacheStats reports it.
type CachedSpill struct {
	mu    sync.Mutex //pjoin:lockrank leaf
	inner SpillStore
	cap   int64
	ent   map[int]*cacheEntry
	gens  map[int]uint64 // bumped on Truncate to invalidate scan snapshots
	// LRU list: head = most recently used, tail = eviction victim.
	head, tail *cacheEntry

	bytes     int64
	hits      int64
	misses    int64
	evictions int64
}

type cacheEntry struct {
	part       int
	data       []byte
	prev, next *cacheEntry
}

// NewCachedSpill wraps inner with a cache holding at most capacity bytes
// of partition data. A non-positive capacity disables caching (every
// lookup is a miss and delegates to inner).
func NewCachedSpill(inner SpillStore, capacity int64) *CachedSpill {
	return &CachedSpill{
		inner: inner,
		cap:   capacity,
		ent:   make(map[int]*cacheEntry),
		gens:  make(map[int]uint64),
	}
}

// CacheStats returns the cache counters.
func (c *CachedSpill) CacheStats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: len(c.ent), Bytes: c.bytes, Capacity: c.cap,
	}
}

// touch moves e to the head of the LRU list (inserting it if new).
func (c *CachedSpill) touch(e *cacheEntry) {
	if c.head == e {
		return
	}
	// Unlink.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if c.tail == e {
		c.tail = e.prev
	}
	// Push front.
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// unlink removes e from the map and list.
func (c *CachedSpill) unlink(e *cacheEntry) {
	delete(c.ent, e.part)
	c.bytes -= int64(len(e.data))
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// install caches data as partition part's full contents, evicting from
// the cold end to respect the budget. Oversized entries are not cached.
func (c *CachedSpill) install(part int, data []byte) {
	if int64(len(data)) > c.cap {
		return
	}
	if old, ok := c.ent[part]; ok {
		c.unlink(old)
	}
	e := &cacheEntry{part: part, data: data}
	c.ent[part] = e
	c.bytes += int64(len(data))
	c.touch(e)
	c.evictOver(e)
}

// evictOver drops cold entries until the budget holds, never evicting
// keep (the entry just touched).
func (c *CachedSpill) evictOver(keep *cacheEntry) {
	for c.bytes > c.cap && c.tail != nil && c.tail != keep {
		c.unlink(c.tail)
		c.evictions++
	}
}

// Append implements SpillStore. An append into an empty partition
// installs the data as the partition's (complete) cached contents; an
// append to a partition already cached extends the entry in place.
func (c *CachedSpill) Append(partition int, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sizeBefore int64 = -1
	if _, ok := c.ent[partition]; !ok && c.cap > 0 {
		sz, err := c.inner.Size(partition)
		if err != nil {
			return err
		}
		sizeBefore = sz
	}
	if err := c.inner.Append(partition, data); err != nil {
		return err
	}
	if e, ok := c.ent[partition]; ok {
		e.data = append(e.data, data...)
		c.bytes += int64(len(data))
		c.touch(e)
		c.evictOver(e)
	} else if sizeBefore == 0 {
		buf := make([]byte, len(data))
		copy(buf, data)
		c.install(partition, buf)
	}
	return nil
}

// Read implements SpillStore. A hit is served from memory with no inner
// I/O; a miss reads through and caches the result.
func (c *CachedSpill) Read(partition int) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.ent[partition]; ok {
		c.hits++
		c.touch(e)
		out := make([]byte, len(e.data))
		copy(out, e.data)
		return out, nil
	}
	c.misses++
	data, err := c.inner.Read(partition)
	if err != nil {
		return nil, err
	}
	if c.cap > 0 && len(data) > 0 {
		buf := make([]byte, len(data))
		copy(buf, data)
		c.install(partition, buf)
	}
	return data, nil
}

// Truncate implements SpillStore.
func (c *CachedSpill) Truncate(partition int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.inner.Truncate(partition); err != nil {
		return err
	}
	if e, ok := c.ent[partition]; ok {
		c.unlink(e)
	}
	c.gens[partition]++
	return nil
}

// Size implements SpillStore.
func (c *CachedSpill) Size(partition int) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.ent[partition]; ok {
		return int64(len(e.data)), nil
	}
	return c.inner.Size(partition)
}

// Stats implements SpillStore: the wrapped store's I/O counters, i.e.
// only the traffic the cache did not absorb.
func (c *CachedSpill) Stats() (IOStats, error) { return c.inner.Stats() }

// Close implements SpillStore.
func (c *CachedSpill) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ent = nil
	c.head, c.tail = nil, nil
	c.bytes = 0
	return c.inner.Close()
}

// OpenScan implements SpillStore. A hit scans the cached bytes with no
// inner I/O. A miss delegates to the inner store's cursor and, when the
// partition fits the cache, accumulates what it reads and installs it if
// the scan runs to completion while the partition is still exactly the
// snapshot it read; a miss the cache could never hold accumulates
// nothing.
func (c *CachedSpill) OpenScan(partition int, reuse ScanCursor) (ScanCursor, error) {
	s, ok := reuse.(*cacheScan)
	if !ok {
		s = new(cacheScan)
	}
	c.mu.Lock()
	if e, ok := c.ent[partition]; ok {
		c.hits++
		c.touch(e)
		// data[:end] is immutable: in-place appends write beyond end and
		// reallocation leaves this array behind, so the cursor can hold
		// the slice without copying.
		*s = cacheScan{c: c, part: partition, gen: c.gens[partition], hit: true,
			data: e.data[:len(e.data)], inner: s.inner, acc: s.acc[:0]}
		c.mu.Unlock()
		return s, nil
	}
	c.misses++
	gen := c.gens[partition]
	c.mu.Unlock()
	fill := false
	if c.cap > 0 {
		sz, err := c.inner.Size(partition)
		if err != nil {
			return nil, err
		}
		fill = sz > 0 && sz <= c.cap
	}
	ic, err := c.inner.OpenScan(partition, s.inner)
	if err != nil {
		return nil, err
	}
	*s = cacheScan{c: c, part: partition, gen: gen, inner: ic, fill: fill, acc: s.acc[:0]}
	return s, nil
}

// cacheScan is CachedSpill's ScanCursor, for a hit and a miss alike. A
// hit reads data, the cached snapshot, with no inner I/O. A miss reads
// through the inner cursor and, when fill is set, accumulates its chunks
// in acc to install at EOF. Re-arming keeps the (closed) inner cursor and
// acc's capacity, so a state's cursor flips between hits and misses
// without allocating; acc fills only for a partition that fitted the
// cache when the scan opened.
type cacheScan struct {
	c      *CachedSpill
	part   int
	gen    uint64
	hit    bool
	data   []byte
	off    int
	inner  ScanCursor
	fill   bool
	acc    []byte
	done   bool
	closed bool
}

// check reports why a hit cursor can no longer be read, if it cannot.
func (s *cacheScan) check() error {
	if s.closed {
		return fmt.Errorf("store: use of closed scan cursor")
	}
	if s.c.gens[s.part] != s.gen {
		return ErrScanTruncated
	}
	return nil
}

// Read implements ScanCursor.
func (s *cacheScan) Read(p []byte) (int, error) {
	if !s.hit {
		return s.readThrough(p)
	}
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if err := s.check(); err != nil {
		return 0, err
	}
	if s.off >= len(s.data) {
		return 0, io.EOF
	}
	n := copy(p, s.data[s.off:])
	s.off += n
	return n, nil
}

// readThrough is a miss's Read: the inner cursor's, accumulating the
// chunks of a snapshot the cache can hold.
func (s *cacheScan) readThrough(p []byte) (int, error) {
	n, err := s.inner.Read(p)
	if err == io.EOF && !s.done {
		s.done = true
		s.tryInstall()
		return 0, io.EOF
	}
	if err != nil {
		return 0, err
	}
	if s.fill {
		s.acc = append(s.acc, p[:n]...)
	}
	return n, nil
}

// tryInstall caches the accumulated snapshot if the partition still is
// exactly that snapshot (no append or truncate raced with the scan). The
// installed bytes belong to the cache from then on.
func (s *cacheScan) tryInstall() {
	if !s.fill || len(s.acc) == 0 {
		return
	}
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if s.c.gens[s.part] != s.gen {
		return
	}
	if _, ok := s.c.ent[s.part]; ok {
		return
	}
	sz, err := s.c.inner.Size(s.part)
	if err != nil || sz != int64(len(s.acc)) {
		return
	}
	s.c.install(s.part, s.acc)
	s.acc = nil
}

// Tail implements ScanCursor. A hit whose entry was evicted meanwhile
// falls back to a full inner read.
func (s *cacheScan) Tail(dst []byte) ([]byte, error) {
	if !s.hit {
		return s.inner.Tail(dst)
	}
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if err := s.check(); err != nil {
		return dst, err
	}
	var full []byte
	if e, ok := s.c.ent[s.part]; ok {
		full = e.data
	} else {
		var err error
		if full, err = s.c.inner.Read(s.part); err != nil {
			return dst, err
		}
	}
	if len(full) <= len(s.data) {
		return dst, nil
	}
	return append(dst, full[len(s.data):]...), nil
}

// Close implements ScanCursor. It lets go of a hit's snapshot, so a
// cursor kept for re-arming pins no evicted entry.
func (s *cacheScan) Close() error {
	s.c.mu.Lock()
	s.closed, s.data = true, nil
	s.c.mu.Unlock()
	if s.hit {
		return nil
	}
	return s.inner.Close()
}

var _ SpillStore = (*CachedSpill)(nil)
