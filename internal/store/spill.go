// Package store implements the shared join state of PJoin and XJoin
// (paper §3.1): one State per input stream, each a hash table whose
// buckets have an in-memory portion and an on-disk portion, plus a purge
// buffer for tuples that are logically purged but may still owe left-over
// joins against disk-resident tuples of the opposite state.
//
// The on-disk portion is behind SpillStore: FileSpill writes real files;
// MemSpill, a simulated disk that counts every byte and op, is core.Config's
// default and so the disk of every command, figure, oracle row and benchmark.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
	// Read returns the partition's entire contents. The returned slice
	// must not be retained across the next Append/Truncate.
	Read(partition int) ([]byte, error)
	// Truncate discards the partition's contents.
	Truncate(partition int) error
	// Size returns the partition's length in bytes.
	Size(partition int) (int64, error)
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

// Read implements SpillStore.
func (m *MemSpill) Read(partition int) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return nil, fmt.Errorf("store: read from closed MemSpill")
	}
	p := m.parts[partition]
	m.stats.ReadOps++
	m.stats.BytesRead += int64(len(p))
	out := make([]byte, len(p))
	copy(out, p)
	return out, nil
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

// Size implements SpillStore.
func (m *MemSpill) Size(partition int) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return 0, fmt.Errorf("store: size on closed MemSpill")
	}
	return int64(len(m.parts[partition])), nil
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

// FileSpill is a SpillStore backed by one file per partition under a
// directory, for running the operators against a real disk.
type FileSpill struct {
	mu    sync.Mutex //pjoin:lockrank leaf
	dir   string
	files map[int]*os.File
	gens  map[int]uint64 // bumped on Truncate to invalidate open cursors
	stats IOStats
	done  bool
}

// NewFileSpill creates a spill store in a fresh subdirectory of dir
// (os.TempDir() if dir is empty). Close removes the directory.
func NewFileSpill(dir string) (*FileSpill, error) {
	d, err := os.MkdirTemp(dir, "pjoin-spill-*")
	if err != nil {
		return nil, fmt.Errorf("store: create spill dir: %w", err)
	}
	return &FileSpill{dir: d, files: make(map[int]*os.File), gens: make(map[int]uint64)}, nil
}

// Dir returns the directory holding the partition files.
func (f *FileSpill) Dir() string { return f.dir }

func (f *FileSpill) partPath(partition int) string {
	return filepath.Join(f.dir, fmt.Sprintf("part-%06d.bin", partition))
}

func (f *FileSpill) file(partition int) (*os.File, error) {
	if fh, ok := f.files[partition]; ok {
		return fh, nil
	}
	fh, err := os.OpenFile(f.partPath(partition), os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("store: open partition %d: %w", partition, err)
	}
	f.files[partition] = fh
	return fh, nil
}

// Append implements SpillStore.
func (f *FileSpill) Append(partition int, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return fmt.Errorf("store: append to closed FileSpill")
	}
	fh, err := f.file(partition)
	if err != nil {
		return err
	}
	if _, err := fh.Seek(0, 2); err != nil {
		return fmt.Errorf("store: seek partition %d: %w", partition, err)
	}
	n, err := fh.Write(data)
	if err != nil {
		return fmt.Errorf("store: write partition %d: %w", partition, err)
	}
	f.stats.WriteOps++
	f.stats.BytesWritten += int64(n)
	return nil
}

// Read implements SpillStore.
func (f *FileSpill) Read(partition int) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return nil, fmt.Errorf("store: read from closed FileSpill")
	}
	fh, err := f.file(partition)
	if err != nil {
		return nil, err
	}
	st, err := fh.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: stat partition %d: %w", partition, err)
	}
	buf, err := readAt(fh, st.Size())
	if err != nil {
		return nil, fmt.Errorf("store: read partition %d: %w", partition, err)
	}
	f.stats.ReadOps++
	f.stats.BytesRead += int64(len(buf))
	return buf, nil
}

// readAt reads exactly size bytes from offset 0. The io.ReaderAt contract
// allows a read that ends exactly at end-of-input to return either nil or
// io.EOF, so a full read with io.EOF is success; every other error is an
// error, including on a zero-length input.
func readAt(r io.ReaderAt, size int64) ([]byte, error) {
	buf := make([]byte, size)
	n, err := r.ReadAt(buf, 0)
	if errors.Is(err, io.EOF) && int64(n) == size {
		err = nil
	}
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// Truncate implements SpillStore. The partition's file is closed and
// removed (not merely truncated): a discarded partition must not keep an
// open descriptor pinning a deleted inode. A later Append re-creates the
// file lazily.
func (f *FileSpill) Truncate(partition int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return fmt.Errorf("store: truncate on closed FileSpill")
	}
	f.gens[partition]++
	fh, ok := f.files[partition]
	if !ok {
		return nil
	}
	delete(f.files, partition)
	closeErr := fh.Close()
	if err := os.Remove(f.partPath(partition)); err != nil {
		return fmt.Errorf("store: remove partition %d: %w", partition, err)
	}
	if closeErr != nil {
		return fmt.Errorf("store: close partition %d: %w", partition, closeErr)
	}
	return nil
}

// Size implements SpillStore.
func (f *FileSpill) Size(partition int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return 0, fmt.Errorf("store: size on closed FileSpill")
	}
	fh, ok := f.files[partition]
	if !ok {
		return 0, nil
	}
	st, err := fh.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: stat partition %d: %w", partition, err)
	}
	return st.Size(), nil
}

// OpenScan implements SpillStore.
func (f *FileSpill) OpenScan(partition int, reuse ScanCursor) (ScanCursor, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return nil, fmt.Errorf("store: scan on closed FileSpill")
	}
	var end int64
	if fh, ok := f.files[partition]; ok {
		st, err := fh.Stat()
		if err != nil {
			return nil, fmt.Errorf("store: stat partition %d: %w", partition, err)
		}
		end = st.Size()
	}
	c, ok := reuse.(*fileScan)
	if !ok {
		c = new(fileScan)
	}
	*c = fileScan{f: f, part: partition, gen: f.gens[partition], end: end}
	return c, nil
}

// fileScan is FileSpill's ScanCursor, reading with ReadAt at a tracked
// offset under the store's mutex.
type fileScan struct {
	f       *FileSpill
	part    int
	gen     uint64
	off     int64
	end     int64 // snapshot extent, fixed at open
	started bool
	closed  bool
}

func (c *fileScan) check() error {
	if c.closed {
		return fmt.Errorf("store: use of closed scan cursor")
	}
	if c.f.done {
		return fmt.Errorf("store: scan on closed FileSpill")
	}
	if c.f.gens[c.part] != c.gen {
		return ErrScanTruncated
	}
	return nil
}

// readRange fills p from the partition starting at off, tolerating
// io.EOF on a read that ends exactly at end-of-file (same contract as
// readAt).
func (c *fileScan) readRange(p []byte, off int64) error {
	fh, ok := c.f.files[c.part]
	if !ok {
		// The snapshot said there were bytes but the file is gone without
		// a generation bump; treat it as a truncation race.
		return ErrScanTruncated
	}
	rn, err := fh.ReadAt(p, off)
	if errors.Is(err, io.EOF) && rn == len(p) {
		err = nil
	}
	if err != nil {
		return fmt.Errorf("store: scan partition %d: %w", c.part, err)
	}
	return nil
}

// Read implements ScanCursor.
func (c *fileScan) Read(p []byte) (int, error) {
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	if err := c.check(); err != nil {
		return 0, err
	}
	if c.off >= c.end {
		return 0, io.EOF
	}
	if left := c.end - c.off; int64(len(p)) > left {
		p = p[:left]
	}
	if err := c.readRange(p, c.off); err != nil {
		return 0, err
	}
	c.off += int64(len(p))
	c.f.stats.countScanRead(&c.started, len(p))
	return len(p), nil
}

// Tail implements ScanCursor.
func (c *fileScan) Tail(dst []byte) ([]byte, error) {
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	if err := c.check(); err != nil {
		return dst, err
	}
	fh, ok := c.f.files[c.part]
	if !ok {
		return dst, nil // never appended to, or snapshot was empty
	}
	st, err := fh.Stat()
	if err != nil {
		return dst, fmt.Errorf("store: stat partition %d: %w", c.part, err)
	}
	n := int(st.Size() - c.end)
	if n <= 0 {
		return dst, nil
	}
	out := slices.Grow(dst, n)[:len(dst)+n]
	if err := c.readRange(out[len(dst):], c.end); err != nil {
		return dst, err
	}
	c.f.stats.ChunkReads++
	c.f.stats.BytesRead += int64(n)
	return out, nil
}

// Close implements ScanCursor.
func (c *fileScan) Close() error {
	c.f.mu.Lock()
	defer c.f.mu.Unlock()
	c.closed = true
	return nil
}

// Stats implements SpillStore.
func (f *FileSpill) Stats() (IOStats, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return IOStats{}, fmt.Errorf("store: stats on closed FileSpill")
	}
	return f.stats, nil
}

// Close implements SpillStore, removing all partition files.
func (f *FileSpill) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return nil
	}
	f.done = true
	var firstErr error
	for _, fh := range f.files {
		if err := fh.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := os.RemoveAll(f.dir); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

var (
	_ SpillStore = (*MemSpill)(nil)
	_ SpillStore = (*FileSpill)(nil)
)
