// Package store implements the shared join state of PJoin and XJoin
// (paper §3.1): one State per input stream, each a hash table whose
// buckets have an in-memory portion and an on-disk portion, plus a purge
// buffer for tuples that are logically purged but may still owe left-over
// joins against disk-resident tuples of the opposite state.
//
// The on-disk portion is behind SpillStore. MemSpill, a simulated disk
// that counts every byte and op, is the one backing store: the disk of
// every command, figure, oracle row and benchmark; FaultSpill (injected
// I/O errors) wraps it for the tests and the oracle. MemSpill keeps its
// partitions in fixed-size blocks from one free list, so a store holds
// its live bytes, not every partition's high water. A disk pass reads a
// partition through one path: State.OpenDiskScan opens a ScanCursor
// (SpillStore.OpenScan) on the store, and decodes a record in full only
// when the pass asks (DiskScan.Decode).
package store

import (
	"errors"
	"fmt"
	"io"
	"slices"
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

// MemSpill is an in-memory SpillStore simulating a disk: all traffic is
// counted, letting the simulator charge I/O costs deterministically. A
// partition is a chain of fixed-size blocks from one free list that the
// whole store shares: Append fills the tail block and takes more from the
// list, Truncate hands the chain back, and a chunk of blocks is carved
// only when the list is empty. So a store holds at most its peak live
// bytes plus one partly filled block per partition and one chunk.
type MemSpill struct {
	mu    sync.Mutex
	parts map[int]memPart
	free  *spillBlock // the free list, chained through next
	stats IOStats
	done  bool
}

const (
	spillBlockSize   = 1<<10 - 8 // bytes per block: a block and its link take 1 KiB
	spillChunkBlocks = 64        // blocks carved at a time: a 64 KiB chunk
)

type spillBlock struct {
	next *spillBlock
	data [spillBlockSize]byte
}

// memPart is one partition: size bytes in the chain head → … → tail,
// every block but the tail full.
type memPart struct {
	head, tail *spillBlock
	size       int64
	gen        uint64 // bumped on Truncate to invalidate open cursors
}

// copyChain fills dst with the chain's bytes from offset o of block b on
// and returns where the copy ended. An offset of spillBlockSize is the
// end of b, so the copy goes on at the start of b.next.
func copyChain(dst []byte, b *spillBlock, o int) (*spillBlock, int) {
	for n := 0; n < len(dst); {
		if o == spillBlockSize {
			b, o = b.next, 0
		}
		k := copy(dst[n:], b.data[o:])
		n, o = n+k, o+k
	}
	return b, o
}

// NewMemSpill returns an empty simulated disk.
func NewMemSpill() *MemSpill {
	return &MemSpill{parts: make(map[int]memPart)}
}

// block takes a block off the free list, carving a chunk when it is
// empty.
func (m *MemSpill) block() *spillBlock {
	if m.free == nil {
		chunk := new([spillChunkBlocks]spillBlock)
		for i := range chunk[1:] {
			chunk[i].next = &chunk[i+1]
		}
		m.free = &chunk[0]
	}
	b := m.free
	m.free, b.next = b.next, nil
	return b
}

// Append implements SpillStore.
func (m *MemSpill) Append(partition int, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return fmt.Errorf("store: append to closed MemSpill")
	}
	m.stats.WriteOps++
	m.stats.BytesWritten += int64(len(data))
	p := m.parts[partition]
	for len(data) > 0 {
		o := int(p.size % spillBlockSize)
		if o == 0 {
			b := m.block()
			if p.tail == nil {
				p.head = b
			} else {
				p.tail.next = b
			}
			p.tail = b
		}
		n := copy(p.tail.data[o:], data)
		data = data[n:]
		p.size += int64(n)
	}
	m.parts[partition] = p
	return nil
}

// Truncate implements SpillStore. Built with the pjoin_poison tag it
// zeroes the blocks it frees, which parseStored rejects at every offset
// (errRecordLen): a read of a freed block fails instead of parsing.
func (m *MemSpill) Truncate(partition int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return fmt.Errorf("store: truncate on closed MemSpill")
	}
	p := m.parts[partition]
	if p.tail != nil {
		for b := p.head; poisoned() && b != nil; b = b.next {
			clear(b.data[:])
		}
		p.tail.next, m.free = m.free, p.head
	}
	m.parts[partition] = memPart{gen: p.gen + 1}
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
	p := m.parts[partition]
	*c = memScan{m: m, part: partition, gen: p.gen, end: p.size, blk: p.head}
	if p.size > 0 {
		c.endBlk, c.endOff = p.tail, int((p.size-1)%spillBlockSize)+1
	}
	return c, nil
}

// memScan is MemSpill's ScanCursor. All reads happen under the store's
// mutex, so cursors are safe against concurrent appends and truncates.
// It keeps the block its next Read starts in, and the one its snapshot
// ends in, where Tail starts; neither read walks the chain from its head.
type memScan struct {
	m       *MemSpill
	part    int
	gen     uint64
	off     int64
	end     int64 // snapshot extent, fixed at open
	blk     *spillBlock
	bo      int // off's offset in blk
	endBlk  *spillBlock
	endOff  int // end's offset in endBlk; endBlk is nil for an empty snapshot
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
	if c.m.parts[c.part].gen != c.gen {
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
	n := int(min(int64(len(p)), c.end-c.off))
	c.blk, c.bo = copyChain(p[:n], c.blk, c.bo)
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
	n := int(p.size - c.end)
	if n <= 0 {
		return dst, nil
	}
	c.m.stats.ChunkReads++
	c.m.stats.BytesRead += int64(n)
	b, o := c.endBlk, c.endOff
	if b == nil {
		b = p.head
	}
	dst = slices.Grow(dst, n)
	copyChain(dst[len(dst):len(dst)+n], b, o)
	return dst[:len(dst)+n], nil
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
	m.parts, m.free = nil, nil
	return nil
}

var _ SpillStore = (*MemSpill)(nil)
