// Package store implements the shared join state of PJoin and XJoin
// (paper §3.1): one State per input stream, each a hash table whose
// buckets have an in-memory portion and an on-disk portion, plus a purge
// buffer for tuples that are logically purged but may still owe left-over
// joins against disk-resident tuples of the opposite state.
//
// The on-disk portion is behind SpillStore. MemSpill, a simulated disk
// that counts every byte and op, is the one backing store: the disk of
// every command, figure, oracle row and benchmark; FaultSpill (injected
// I/O errors) wraps it for the tests and the oracle. A disk pass reads a
// partition through one path: State.OpenDiskScan opens a ScanCursor
// (SpillStore.OpenScan) on the store.
package store

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// IOStats counts traffic through a SpillStore. The simulator charges
// virtual time for these; benches report them.
type IOStats struct {
	WriteOps     int64
	ReadOps      int64
	BytesWritten int64
	BytesRead    int64
	// ChunkReads counts sequential continuation reads by scan cursors:
	// the first read of a scan is a ReadOp (it pays the seek), every
	// later Read/Tail of the same cursor is a ChunkRead.
	ChunkReads int64
}

// countScanRead counts one successful cursor Read of n bytes: the first
// of a scan is a ReadOp, the rest are ChunkReads.
func (s *IOStats) countScanRead(started *bool, n int) {
	if *started {
		s.ChunkReads++
	} else {
		s.ReadOps++
		*started = true
	}
	s.BytesRead += int64(n)
}

// ErrScanTruncated is returned by a ScanCursor whose partition was
// truncated after the cursor was opened: the snapshot it was reading no
// longer exists, so the scan must be abandoned and restarted.
var ErrScanTruncated = errors.New("store: partition truncated under scan")

// DefaultScanChunk is the chunk size DiskScan.Next reads when it is
// given a non-positive budget.
const DefaultScanChunk = 64 << 10

// ScanCursor reads one partition incrementally. OpenScan fixes the scan's
// extent at the partition's size at open time, so a cursor is duplicate-
// safe under concurrent appends: bytes appended after the open are never
// returned by Read, only by an explicit Tail call. Truncating the
// partition invalidates the cursor (ErrScanTruncated).
//
// Both methods write into memory the caller owns and allocate nothing of
// their own: the copy out of the store is the read, and it is the only
// copy. The caller sizes the buffer, so it also sets the chunk size. A
// closed cursor can be handed back to OpenScan, which re-arms it for the
// next scan instead of allocating one, so a caller that keeps its cursor
// opens every scan after the first without allocating.
type ScanCursor interface {
	// Read fills p (not empty) with the next bytes of the snapshot and
	// returns how many there were, at least one, or 0 and io.EOF once the
	// snapshot is exhausted (the io.Reader shape). Each successful Read
	// is one counted read of n bytes.
	Read(p []byte) (n int, err error)
	// Tail appends to dst the bytes appended to the partition after the
	// cursor was opened, and returns the extended slice (dst itself if
	// there are none).
	Tail(dst []byte) ([]byte, error)
	// Close releases the cursor. The cursor is unusable afterwards.
	Close() error
}

// SpillStore is the secondary-storage abstraction: an append-only byte
// log per partition (one partition per hash bucket per state).
type SpillStore interface {
	// Append appends data to the partition's log. Implementations must
	// not retain data: the caller reuses the slice as soon as Append
	// returns (State encodes every spill into one scratch buffer).
	Append(partition int, data []byte) error
	// Truncate discards the partition's contents.
	Truncate(partition int) error
	// OpenScan returns a cursor over the partition's current contents
	// (see ScanCursor). Opening counts no I/O; the chunk reads do. reuse
	// is nil or a closed cursor the caller gives up, in the shape of
	// Tail(dst): a cursor of this store's kind is re-armed and returned,
	// anything else is ignored and a new cursor allocated.
	OpenScan(partition int, reuse ScanCursor) (ScanCursor, error)
	// Stats returns cumulative I/O counters. Only successful operations
	// are counted: a failed read or write contributes nothing.
	Stats() (IOStats, error)
	// Close releases resources. The store is unusable afterwards.
	Close() error
}

// MemSpill is an in-memory SpillStore simulating a disk: contents live in
// byte slices but all traffic is counted, letting the simulator charge I/O
// costs deterministically. Truncate empties a partition's slice but keeps
// its array, so each partition holds its high-water extent until Close.
type MemSpill struct {
	mu    sync.Mutex //pjoin:lockrank leaf
	parts map[int][]byte
	gens  map[int]uint64 // bumped on Truncate to invalidate open cursors
	stats IOStats
	done  bool
}

// NewMemSpill returns an empty simulated disk.
func NewMemSpill() *MemSpill {
	return &MemSpill{parts: make(map[int][]byte), gens: make(map[int]uint64)}
}

// Append implements SpillStore.
func (m *MemSpill) Append(partition int, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return fmt.Errorf("store: append to closed MemSpill")
	}
	m.parts[partition] = append(m.parts[partition], data...)
	m.stats.WriteOps++
	m.stats.BytesWritten += int64(len(data))
	return nil
}

// Truncate implements SpillStore.
func (m *MemSpill) Truncate(partition int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return fmt.Errorf("store: truncate on closed MemSpill")
	}
	m.parts[partition] = m.parts[partition][:0]
	m.gens[partition]++
	return nil
}

// OpenScan implements SpillStore.
func (m *MemSpill) OpenScan(partition int, reuse ScanCursor) (ScanCursor, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return nil, fmt.Errorf("store: scan on closed MemSpill")
	}
	c, ok := reuse.(*memScan)
	if !ok {
		c = new(memScan)
	}
	*c = memScan{
		m: m, part: partition,
		gen: m.gens[partition],
		end: int64(len(m.parts[partition])),
	}
	return c, nil
}

// memScan is MemSpill's ScanCursor. All reads happen under the store's
// mutex, so cursors are safe against concurrent appends and truncates.
type memScan struct {
	m       *MemSpill
	part    int
	gen     uint64
	off     int64
	end     int64 // snapshot extent, fixed at open
	started bool
	closed  bool
}

func (c *memScan) check() error {
	if c.closed {
		return fmt.Errorf("store: use of closed scan cursor")
	}
	if c.m.done {
		return fmt.Errorf("store: scan on closed MemSpill")
	}
	if c.m.gens[c.part] != c.gen {
		return ErrScanTruncated
	}
	return nil
}

// Read implements ScanCursor.
func (c *memScan) Read(p []byte) (int, error) {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	if err := c.check(); err != nil {
		return 0, err
	}
	if c.off >= c.end {
		return 0, io.EOF
	}
	n := copy(p, c.m.parts[c.part][c.off:c.end])
	c.off += int64(n)
	c.m.stats.countScanRead(&c.started, n)
	return n, nil
}

// Tail implements ScanCursor.
func (c *memScan) Tail(dst []byte) ([]byte, error) {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	if err := c.check(); err != nil {
		return dst, err
	}
	p := c.m.parts[c.part]
	if int64(len(p)) <= c.end {
		return dst, nil
	}
	c.m.stats.ChunkReads++
	c.m.stats.BytesRead += int64(len(p)) - c.end
	return append(dst, p[c.end:]...), nil
}

// Close implements ScanCursor.
func (c *memScan) Close() error {
	c.m.mu.Lock()
	defer c.m.mu.Unlock()
	c.closed = true
	return nil
}

// Stats implements SpillStore.
func (m *MemSpill) Stats() (IOStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return IOStats{}, fmt.Errorf("store: stats on closed MemSpill")
	}
	return m.stats, nil
}

// Close implements SpillStore.
func (m *MemSpill) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.done = true
	m.parts = nil
	return nil
}

var _ SpillStore = (*MemSpill)(nil)
