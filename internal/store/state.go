package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"

	"pjoin/internal/punct"
	"pjoin/internal/slab"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// InMemory is the DTS (departure timestamp) of a tuple that is still in
// the memory-resident portion of its bucket. Once a tuple is relocated to
// disk or moved to the purge buffer its DTS is set to that moment and
// never changes again; the [ATS, DTS) residence interval is what the
// disk-join duplicate avoidance reasons about.
const InMemory stream.Time = math.MaxInt64

// StoredTuple is a tuple held in a join state, augmented with the
// punctuation-index pid (Fig. 2(b) of the paper; NoPID = null) and its
// memory-residence interval [ATS, DTS).
//
// ATS is the tuple's arrival time at the join, the Ts of the item that
// delivered it — not T.Ts, which is whatever the tuple's creator set:
// tuples are shared, and the live executor restamps items, never tuples.
// The state holds the delivered tuple itself (a copy only when it was
// borrowed: stream.ResultSlab.Keep), so the arrival time lives here. A
// spill record carries ATS in its tuple's Ts slot, so a tuple decoded
// from disk has T.Ts == ATS.
type StoredTuple struct {
	T   *stream.Tuple
	PID punct.PID
	ATS stream.Time
	DTS stream.Time
}

// Resident reports whether the tuple is still memory-resident.
func (s *StoredTuple) Resident() bool { return s.DTS == InMemory }

// Overlaps reports whether the memory-residence intervals of s and o
// overlapped. Two tuples whose residence overlapped were joined by the
// memory join when the later one arrived, so disk joins must skip such
// pairs.
func (s *StoredTuple) Overlaps(o *StoredTuple) bool {
	return s.ATS < o.DTS && o.ATS < s.DTS
}

// Bucket is one hash bucket of a State: a key-grouped memory-resident
// portion (see memindex.go), a purge buffer (tuples purged by
// punctuations that may still owe left-over joins against the opposite
// state's disk portion, §3.1), and accounting for the on-disk portion.
type Bucket struct {
	mem        memIndex
	PurgeBuf   []*StoredTuple
	DiskTuples int
	DiskBytes  int64
}

// MemLen returns the number of memory-resident tuples in the bucket.
func (b *Bucket) MemLen() int { return b.mem.ntuples }

// MemGroups returns the number of distinct join keys resident in the
// bucket.
func (b *Bucket) MemGroups() int { return b.mem.ngroups }

// ForEachMem calls fn for every memory-resident tuple in arrival order.
// fn must not mutate the state.
func (b *Bucket) ForEachMem(fn func(*StoredTuple)) {
	for n := b.mem.ahead; n != nil; n = n.anext {
		fn(n.s)
	}
}

// AppendMem appends the memory-resident tuples to dst in arrival order
// and returns the extended slice.
func (b *Bucket) AppendMem(dst []*StoredTuple) []*StoredTuple {
	for n := b.mem.ahead; n != nil; n = n.anext {
		dst = append(dst, n.s)
	}
	return dst
}

// Stats summarises a State's size. TotalTuples is the paper's "number of
// tuples in the join state" metric (memory + purge buffer + disk).
type Stats struct {
	MemTuples   int
	MemGroups   int // distinct join keys in the memory portion
	PurgeTuples int
	DiskTuples  int
	MemBytes    int64
	DiskBytes   int64
}

// TotalTuples returns the full state size in tuples.
func (s Stats) TotalTuples() int { return s.MemTuples + s.PurgeTuples + s.DiskTuples }

// State is the join state for one input stream: a hash table over the
// join attribute whose buckets group their tuples by key (memindex.go).
// All mutation goes through State methods so the size accounting and the
// occupancy tracker stay consistent.
type State struct {
	name  string
	attr  int
	spill SpillStore
	bkts  []Bucket
	stats Stats

	al   alloc
	occ  occTracker
	hash func(value.Value) uint64

	// The one scan a state can have open (with its spill cursor), the
	// arena its tuples are decoded into, and the scratch every spill
	// write is encoded in: all reused from scan to scan, all bounded
	// between scans (scanRetain*).
	scan  DiskScan
	arena scanArena
	enc   []byte

	// taken backs the slice TakeKeyGroup returns.
	taken []*StoredTuple

	// seq counts mutations of the memory portion (inserts, purges,
	// expiry, spills). A MemProbe memoized at sequence s is valid as
	// long as seq == s: no tuple entered or left memory since, so a
	// fresh probe would return the identical matches and examined
	// count. This is what makes ProbeMemCached's hit path exact.
	seq uint64
}

// NewState creates a state named name (used in errors) hashing on
// attribute index attr with nbuckets buckets, spilling to spill.
func NewState(name string, attr, nbuckets int, spill SpillStore) (*State, error) {
	if attr < 0 {
		return nil, fmt.Errorf("store: state %s: negative join attribute %d", name, attr)
	}
	if nbuckets <= 0 {
		return nil, fmt.Errorf("store: state %s: need at least one bucket, got %d", name, nbuckets)
	}
	if spill == nil {
		return nil, fmt.Errorf("store: state %s: nil spill store", name)
	}
	return &State{
		name: name, attr: attr, spill: spill,
		bkts:  make([]Bucket, nbuckets),
		occ:   newOccTracker(nbuckets),
		hash:  value.Value.Hash,
		arena: newScanArena(),
		al:    newAlloc(),
	}, nil
}

// SetHashFuncForTest replaces the value-hash function, so tests can force
// full-hash collisions through the group index. The state must be empty.
func (st *State) SetHashFuncForTest(fn func(value.Value) uint64) {
	if st.stats.TotalTuples() != 0 {
		panic("store: SetHashFuncForTest on non-empty state")
	}
	st.hash = fn
}

// Name returns the state's stream name.
func (st *State) Name() string { return st.name }

// Attr returns the join attribute index.
func (st *State) Attr() int { return st.attr }

// NumBuckets returns the bucket count.
func (st *State) NumBuckets() int { return len(st.bkts) }

// Bucket returns bucket i for inspection. Callers must not mutate it
// directly; use the State methods.
func (st *State) Bucket(i int) *Bucket { return &st.bkts[i] }

// Stats returns the current size accounting.
func (st *State) Stats() Stats { return st.stats }

// IOStats returns the spill store's cumulative I/O counters. Disk-pass
// provenance (internal/obs/span) snapshots these around a pass so the
// spill reads a pass caused are attributed to its trace.
func (st *State) IOStats() (IOStats, error) { return st.spill.Stats() }

// SpillCacheStats returns the spill cache's counters when the spill
// store is (or wraps) a cache, and the zero value otherwise — the
// cache-hit side of a pass's I/O attribution.
func (st *State) SpillCacheStats() CacheStats {
	if c, ok := st.spill.(interface{ CacheStats() CacheStats }); ok {
		return c.CacheStats()
	}
	return CacheStats{}
}

// Key returns t's join-attribute value.
func (st *State) Key(t *stream.Tuple) value.Value { return t.Values[st.attr] }

// Hash returns the state's 64-bit hash of a join value, the one its
// buckets and key groups are placed by.
func (st *State) Hash(key value.Value) uint64 { return st.hash(key) }

// BucketOf returns the bucket index for a join value.
func (st *State) BucketOf(key value.Value) int {
	return int(st.hash(key) % uint64(len(st.bkts)))
}

// Insert is InsertAt at the tuple's own Ts, for callers whose tuples
// carry their arrival time.
func (st *State) Insert(t *stream.Tuple) (*StoredTuple, error) { return st.InsertAt(t, t.Ts) }

// InsertAt adds a new arrival, at time ats, to the memory-resident
// portion of its bucket and returns the stored wrapper. The wrapper and
// its index node (and a new key's group) come from the state's free lists,
// or its slabs when those are empty — one allocation per chunk of each —
// so insertion allocates nothing once the state holds its peak.
//
//pjoin:hotpath
func (st *State) InsertAt(t *stream.Tuple, ats stream.Time) (*StoredTuple, error) {
	if len(t.Values) <= st.attr {
		//pjoin:allow hotpath malformed-tuple error path: never taken on schema-valid streams
		return nil, fmt.Errorf("store: state %s: tuple width %d lacks join attribute %d", st.name, len(t.Values), st.attr)
	}
	key := t.Values[st.attr]
	h := st.hash(key)
	i := int(h % uint64(len(st.bkts)))
	s := st.al.newStored(t, ats)
	st.seq++
	if st.bkts[i].mem.insert(&st.al, key, h, s) {
		st.stats.MemGroups++
	}
	st.occ.add(i, 1)
	st.stats.MemTuples++
	st.stats.MemBytes += int64(t.EncodedSize())
	return s, nil
}

// ProbeMem appends to dst the memory-resident tuples whose join attribute
// equals key, in arrival order, and returns the extended slice along
// with the number of tuples *examined*, for cost accounting: the probe
// resolves the key's group directly, so examined equals the number of
// matches (O(matches)).
//
//pjoin:hotpath
func (st *State) ProbeMem(key value.Value, dst []*StoredTuple) (matches []*StoredTuple, examined int) {
	matches, examined, _ = st.probe(key, dst)
	return matches, examined
}

// probe is ProbeMem that also reports the probed bucket's memory
// occupancy: what a chained hash table without the group index would
// have walked to answer the same probe (Metrics.ProbeWalk).
//
//pjoin:hotpath
func (st *State) probe(key value.Value, dst []*StoredTuple) (matches []*StoredTuple, examined, walked int) {
	h := st.hash(key)
	b := &st.bkts[h%uint64(len(st.bkts))]
	g := b.mem.lookup(key, h)
	if g == nil {
		return dst, 0, b.mem.ntuples
	}
	for n := g.head; n != nil; n = n.gnext {
		dst = append(dst, n.s)
	}
	return dst, g.n, b.mem.ntuples
}

// MemProbe memoizes one ProbeMem result so a run of same-key probes
// against an unchanged memory portion pays the hash + group lookup
// once. The matches slice doubles as the probe's scratch buffer, so a
// MemProbe also replaces a caller-held reusable []*StoredTuple. The zero
// MemProbe holds the probe of an empty state (seq 0). It pins no purged
// or spilled tuple: the state recycles their wrappers (Free).
type MemProbe struct {
	seq      uint64
	key      value.Value
	matches  []*StoredTuple
	examined int
	walked   int
}

// Walked returns the memory occupancy of the bucket the memoized probe
// resolved in — like examined, what a fresh probe would report.
func (mp *MemProbe) Walked() int { return mp.walked }

// ProbeMemCached is ProbeMem with memoization: if mp holds the result
// of a probe for the same key and the memory portion has not mutated
// since (seq guard), the memoized matches and examined count are
// returned without touching the index — bit-identical to a fresh probe,
// including the cost accounting. On a miss it probes normally and
// memoizes into mp.
//
//pjoin:hotpath
func (st *State) ProbeMemCached(key value.Value, mp *MemProbe) (matches []*StoredTuple, examined int) {
	if mp.seq == st.seq && mp.key.Equal(key) {
		return mp.matches, mp.examined
	}
	mp.matches, mp.examined, mp.walked = st.probe(key, mp.matches[:0])
	mp.seq = st.seq
	mp.key = key
	return mp.matches, mp.examined
}

// MemBytes returns the in-memory byte accounting (mem portion only; the
// purge buffer is counted separately since it is about to leave).
func (st *State) MemBytes() int64 { return st.stats.MemBytes }

// removeAccounting updates the size counters for one tuple leaving
// bucket i's memory portion.
func (st *State) removeAccounting(i int, s *StoredTuple, groupGone bool) {
	st.stats.MemTuples--
	st.stats.MemBytes -= int64(s.T.EncodedSize())
	st.occ.add(i, -1)
	if groupGone {
		st.stats.MemGroups--
	}
}

// FilterMem removes from bucket i's memory portion every tuple for which
// drop returns true (evaluated in arrival order) and returns the removed
// tuples. Accounting is updated; the caller handles pid-count bookkeeping
// and purge-buffer placement of the removed tuples.
func (st *State) FilterMem(i int, drop func(*StoredTuple) bool) []*StoredTuple {
	b := &st.bkts[i]
	var removed []*StoredTuple
	for n := b.mem.ahead; n != nil; {
		next := n.anext
		if drop(n.s) {
			removed = append(removed, n.s)
			st.removeAccounting(i, n.s, b.mem.unlink(&st.al, n))
			st.al.freeNode(n)
		}
		n = next
	}
	if len(removed) > 0 {
		st.seq++
	}
	return removed
}

// TakeKeyGroup removes and returns the entire memory-resident group of
// the given join value (in arrival order) together with its bucket
// index. This is the O(matches) purge path for constant and enumeration
// punctuation patterns: no other group is touched. The slice is the
// state's scratch — valid until the next TakeKeyGroup on this state, so
// a caller that collects several groups copies each out first — and nil
// when the key has no group.
//
//pjoin:hotpath
func (st *State) TakeKeyGroup(key value.Value) (bucket int, removed []*StoredTuple) {
	h := st.hash(key)
	bucket = int(h % uint64(len(st.bkts)))
	b := &st.bkts[bucket]
	clear(st.taken) // or a long group's tail stays pinned behind shorter ones
	removed = b.mem.takeGroup(&st.al, key, h, st.taken[:0])
	st.taken = removed
	if len(removed) == 0 {
		return bucket, nil
	}
	st.seq++
	st.stats.MemTuples -= len(removed)
	st.stats.MemGroups--
	for _, s := range removed {
		st.stats.MemBytes -= int64(s.T.EncodedSize())
	}
	st.occ.add(bucket, -len(removed))
	return bucket, removed
}

// ExpireMemPrefix removes and returns the leading memory-resident tuples
// of bucket i whose arrival timestamp is before cutoff. The arrival list
// is threaded across the key groups in arrival order, so expired tuples
// form a prefix, the scan stops at the first still-valid tuple — the
// sliding-window invalidation optimisation of the paper's §6 — and each
// expired node is its group's head (group chains are suborders of the
// arrival list), keeping every unlink O(1).
func (st *State) ExpireMemPrefix(i int, cutoff stream.Time) []*StoredTuple {
	b := &st.bkts[i]
	var expired []*StoredTuple
	for n := b.mem.ahead; n != nil && n.s.ATS < cutoff; {
		next := n.anext
		expired = append(expired, n.s)
		st.removeAccounting(i, n.s, b.mem.unlink(&st.al, n))
		st.al.freeNode(n)
		n = next
	}
	if len(expired) > 0 {
		st.seq++
	}
	return expired
}

// AddToPurgeBuffer stamps the tuple's departure time and parks it in
// bucket i's purge buffer. The tuple must already have been removed from
// the memory portion (via FilterMem or TakeKeyGroup).
func (st *State) AddToPurgeBuffer(i int, s *StoredTuple, now stream.Time) {
	s.DTS = now
	st.bkts[i].PurgeBuf = append(st.bkts[i].PurgeBuf, s)
	st.stats.PurgeTuples++
}

// Park puts a new arrival at time ats straight into bucket i's purge
// buffer, never into memory: a tuple dropped on the fly that still owes
// joins against the opposite state's disk portion. Its residence
// interval is the empty [ats, ats). The wrapper comes from the same free
// list as Insert's.
func (st *State) Park(i int, t *stream.Tuple, ats stream.Time) {
	st.AddToPurgeBuffer(i, st.al.newStored(t, ats), ats)
}

// Free gives back the wrapper of a discarded tuple, once nothing reads
// it, for a later insert. SpillBucket frees its own; a disk scan's
// wrappers are the scan arena's, never freed.
func (st *State) Free(s *StoredTuple) { st.al.freeStored(s) }

// Hold makes the wrappers freed until Unhold wait, untouched, in limbo:
// a disk pass holds both states while a bucket is open, as its snapshot
// points to wrappers the join may purge or relocate between steps.
func (st *State) Hold() { st.al.held = true }

// Unhold ends a Hold, recycling the wrappers freed during it.
func (st *State) Unhold() {
	st.al.held = false
	for _, s := range st.al.limbo {
		st.al.freeStored(s)
	}
	clear(st.al.limbo)
	st.al.limbo = st.al.limbo[:0]
}

// RetainedBytes returns what the state holds beyond its bucket array:
// wrapper, node and group chunks, free lists, slot arrays, and the scan
// memory kept between scans (scanRetainBytes) or grown by an open one.
func (st *State) RetainedBytes() int {
	al, stored := &st.al, int(unsafe.Sizeof(StoredTuple{}))
	n := (al.stored.Cap()+st.arena.stored.Cap())*stored + al.nodes.Cap()*int(unsafe.Sizeof(groupNode{})) +
		al.groups.Cap()*int(unsafe.Sizeof(group{})) + (cap(al.free)+cap(al.limbo))*8 +
		st.arena.tuples.RetainedBytes() + cap(st.scan.buf) + cap(st.scan.recs)*int(unsafe.Sizeof(diskRec{})) + cap(st.enc)
	for i := range st.bkts {
		n += cap(st.bkts[i].mem.slots) * 8
	}
	return n
}

// TakePurgeBuffer appends bucket i's purge buffer to dst, empties it and
// returns the extended slice; the caller completes their left-over joins
// and decrements punctuation counts. The bucket keeps the buffer's
// capacity for its next purges, cleared so it pins no tuple.
func (st *State) TakePurgeBuffer(i int, dst []*StoredTuple) []*StoredTuple {
	b := &st.bkts[i]
	dst = append(dst, b.PurgeBuf...)
	st.stats.PurgeTuples -= len(b.PurgeBuf)
	clear(b.PurgeBuf)
	b.PurgeBuf = b.PurgeBuf[:0]
	return dst
}

// SpillBucket relocates bucket i's entire memory portion to disk in
// arrival order, stamping each tuple's DTS with now (paper §3.3,
// following XJoin's memory-overflow resolution), and frees the wrappers
// (see Free). It returns the number of tuples moved.
func (st *State) SpillBucket(i int, now stream.Time) (int, error) {
	b := &st.bkts[i]
	n := b.mem.ntuples
	if n == 0 {
		return 0, nil
	}
	st.seq++
	size, memBytes := 0, int64(0)
	for nd := b.mem.ahead; nd != nil; nd = nd.anext {
		nd.s.DTS = now
		size += storedSize(nd.s)
		memBytes += int64(nd.s.T.EncodedSize())
	}
	buf := st.scratch(size)
	for nd := b.mem.ahead; nd != nil; nd = nd.anext {
		buf = appendStored(buf, nd.s)
	}
	st.keepScratch(buf)
	if err := st.spill.Append(i, buf); err != nil {
		return 0, fmt.Errorf("store: state %s: spill bucket %d: %w", st.name, i, err)
	}
	b.DiskTuples += n
	b.DiskBytes += int64(len(buf))
	st.stats.DiskTuples += n
	st.stats.DiskBytes += int64(len(buf))
	st.stats.MemTuples -= n
	st.stats.MemGroups -= b.mem.ngroups
	st.stats.MemBytes -= memBytes
	b.mem.reset(&st.al)
	st.occ.set(i, 0)
	return n, nil
}

// LargestMemBucket returns the index of the bucket with the most
// memory-resident tuples (the spill victim XJoin picks), or -1 if the
// whole memory portion is empty. The occupancy tracker answers without
// scanning the bucket array.
func (st *State) LargestMemBucket() int { return st.occ.largest() }

// What a State keeps between scans, so that the next scan allocates
// nothing: scanRetainChunks slab chunks of each kind in the decode arena
// (room for 8,160 tuples of up to four attributes), the record list of
// as many records, and a read buffer and an encode scratch of at most
// scanRetainBuf bytes each. Whatever a larger bucket needed beyond that
// is released when its scan finishes. scanRetainBytes is the resulting
// bound on a State's retained scan memory (the arena's current 8 KiB
// string slab aside).
const (
	scanRetainChunks = 32
	scanRetainRecs   = scanRetainChunks * storedChunk
	scanRetainBuf    = 512 << 10
	scanRetainBytes  = scanRetainChunks*(storedChunk*int(unsafe.Sizeof(StoredTuple{}))+stream.ArenaChunkBytes) +
		scanRetainRecs*int(unsafe.Sizeof(diskRec{})) + 2*scanRetainBuf
)

// scanArena is where a scan's records are parsed and its tuples decoded:
// StoredTuple wrappers from a recyclable slab, the tuples themselves (and
// the join keys) in a stream.Arena. The zero scanArena decodes into
// ordinary heap allocations.
type scanArena struct {
	stored slab.Slab[StoredTuple]
	tuples stream.Arena
}

func newScanArena() scanArena {
	return scanArena{stored: slab.New[StoredTuple](storedChunk), tuples: stream.NewArena()}
}

// reset ends the lifetime of every tuple decoded so far and readies the
// slabs for reuse: the recycled memory is zeroed, so a StoredTuple held
// across it has a nil T (a poisoned one: poison.go).
func (a *scanArena) reset() {
	if poisoned() {
		a.stored.ResetTo(recycled)
	} else {
		a.stored.Reset()
	}
	a.tuples.Reset()
}

// trim enforces the retention bound without touching decoded tuples.
func (a *scanArena) trim() {
	a.stored.Trim(scanRetainChunks)
	a.tuples.Trim(scanRetainChunks)
}

// grownSize is a size-c buffer's new size for n > c bytes: 2c to scanRetainBuf, or n.
func grownSize(c, n int) int { return max(n, min(2*c, scanRetainBuf)) }

// scratch returns the empty encode buffer with room for size bytes.
func (st *State) scratch(size int) []byte {
	if cap(st.enc) < size {
		st.enc = make([]byte, 0, grownSize(cap(st.enc), size))
	}
	return st.enc[:0]
}

// keepScratch takes the encode buffer back for the next write, unless
// it has outgrown what a state retains; the caller may go on using buf
// until then. (Append may not retain it: see SpillStore.)
func (st *State) keepScratch(buf []byte) {
	st.enc = nil
	if cap(buf) <= scanRetainBuf {
		st.enc = buf[:0]
	}
}

// DiskScan is a resumable cursor over one bucket's on-disk portion, the
// one way the disk portion is read back. The scan covers exactly the
// tuples that were on disk when it opened; tuples spilled afterwards are
// left alone (FinishDiskScan preserves them through the cursor's tail).
//
// A scan parses every record to its header and its join key (Next), and
// decodes a record's tuple in full only when asked to (Decode): a disk
// pass decodes only the records that can make a new pair. The bytes read
// stay in the scan's buffer until it finishes, so a record is decoded,
// and written back by the rewrite, from the bytes read once.
//
// A State owns one DiskScan and reuses it, with its buffer, its record
// list and its spill cursor (re-armed by SpillStore.OpenScan), for every
// scan, so a state has at most one scan open at a time.
type DiskScan struct {
	st   *State
	i    int
	cur  ScanCursor // the state's one cursor, closed between scans; nil before the first
	open bool
	// buf holds the snapshot bytes read so far, from the first record on
	// (len == cap); buf[lo:hi] is read but not yet parsed — after a Next,
	// the front of a record split across reads.
	buf        []byte
	lo, hi     int
	recs       []diskRec // the records parsed so far, in spill order
	snapTuples int       // DiskTuples when the scan opened
	snapBytes  int64     // DiskBytes when the scan opened: sizes the reads
	got        int64     // snapshot bytes read so far
	eof        bool
}

// diskRec is what a scan knows of a record it has parsed: its
// StoredTuple (T nil until Decode), its join key, and where its bytes are
// in the scan's buffer — the record is buf[start:end], its tuple's
// encoding buf[tup:end].
type diskRec struct {
	s               *StoredTuple
	key             value.Value
	start, tup, end int
}

// OpenDiskScan opens a scan of bucket i's on-disk portion, or returns
// nil if the bucket has none. Opening a scan recycles the state's decode
// arena: every tuple returned by an earlier scan of this state is dead
// from here on (see DiskScan.Next). A scan reads each record once; a
// pass that finds nothing to pair in a record still reads it (for its key
// and for the rewrite), but never decodes it past the key.
func (st *State) OpenDiskScan(i int) (*DiskScan, error) {
	b := &st.bkts[i]
	if b.DiskTuples == 0 {
		return nil, nil
	}
	ds := &st.scan
	if ds.open {
		return nil, fmt.Errorf("store: state %s: scan bucket %d: scan of bucket %d is still open", st.name, i, ds.i)
	}
	cur, err := st.spill.OpenScan(i, ds.cur)
	if err != nil {
		return nil, fmt.Errorf("store: state %s: scan bucket %d: %w", st.name, i, err)
	}
	st.arena.reset()
	*ds = DiskScan{st: st, i: i, cur: cur, open: true, buf: ds.buf, recs: slices.Grow(ds.recs[:0], b.DiskTuples),
		snapTuples: b.DiskTuples, snapBytes: b.DiskBytes}
	return ds, nil
}

// Next reads up to budget more bytes of the snapshot (DefaultScanChunk
// if budget <= 0), parses every record they complete, appends the
// records' StoredTuples to dst, and reports whether the scan is
// exhausted. A record split across the read boundary is kept and
// completed by the next call.
//
// Parsing checks the whole record, as a full decode would, but decodes
// only its header (PID, DTS, ATS) and its join key: a StoredTuple comes
// back with a nil T. Key and Size read the rest of what was parsed, and
// Decode decodes the tuple in full. Records are numbered from 0 in the
// order Next returns them.
//
// The StoredTuples and decoded tuples live in the state's arena, not on
// the heap: they (StoredTuple, Tuple and Values) are valid until the next
// OpenDiskScan on the same state and are zeroed by it, so a caller that
// wants one for longer copies it. Attribute values copied out of a tuple
// (a join result) stay valid: string payloads are never recycled.
func (ds *DiskScan) Next(budget int, dst []*StoredTuple) ([]*StoredTuple, bool, error) {
	if ds.eof && ds.lo == ds.hi {
		return dst, true, nil
	}
	if !ds.eof {
		if err := ds.fill(budget); err != nil {
			return dst, false, fmt.Errorf("store: state %s: scan bucket %d: %w", ds.st.name, ds.i, err)
		}
	}
	for ds.lo < ds.hi {
		r, n, err := ds.st.arena.parseStored(ds.buf[ds.lo:ds.hi], ds.st.attr)
		if err != nil {
			if errors.Is(err, errShortRecord) && !ds.eof {
				break // retry once the next read arrives
			}
			return dst, false, fmt.Errorf("store: state %s: decode bucket %d: %w", ds.st.name, ds.i, err)
		}
		r.start, r.tup, r.end = ds.lo, ds.lo+r.tup, ds.lo+n
		ds.recs = append(ds.recs, r)
		dst = append(dst, r.s)
		ds.lo += n
	}
	done := ds.eof && ds.lo == ds.hi
	if done && len(ds.recs) != ds.snapTuples {
		return dst, false, fmt.Errorf("store: state %s: bucket %d scan read %d tuples, accounting says %d",
			ds.st.name, ds.i, len(ds.recs), ds.snapTuples)
	}
	return dst, done, nil
}

// Key returns the join key of record j.
func (ds *DiskScan) Key(j int) value.Value { return ds.recs[j].key }

// Size returns the length of record j in the partition: what the
// bucket's DiskBytes falls by when a rewrite leaves the record out.
func (ds *DiskScan) Size(j int) int { return ds.recs[j].end - ds.recs[j].start }

// Decode decodes record j's tuple in full into the state's arena and sets
// it as the record's StoredTuple's T, unless it has one already.
func (ds *DiskScan) Decode(j int) error {
	r := &ds.recs[j]
	if r.s.T != nil {
		return nil
	}
	t, _, err := ds.st.arena.tuples.DecodeTuple(ds.buf[r.tup:r.end])
	if err != nil {
		return fmt.Errorf("store: state %s: decode bucket %d: %w", ds.st.name, ds.i, err)
	}
	r.s.T = t
	return nil
}

// fill reads the next at-most-budget bytes of the snapshot behind those
// already read. The read is sized by what the bucket's accounting says is
// left, so an unbounded budget reads the partition in one piece; a short
// buffer grows at most once a scan, to the snapshot or more (grownSize). The
// accounting is only a hint — the cursor decides where the snapshot ends.
func (ds *DiskScan) fill(budget int) error {
	if budget <= 0 {
		budget = DefaultScanChunk
	}
	want := min(max(ds.snapBytes-ds.got, 1), int64(budget)) // the read that finds io.EOF still needs room
	need := ds.hi + int(want)
	if len(ds.buf) < need {
		grown := make([]byte, grownSize(len(ds.buf), max(need, int(ds.snapBytes)+1)))
		copy(grown, ds.buf[:ds.hi])
		ds.buf = grown
	}
	n, err := ds.cur.Read(ds.buf[ds.hi:need])
	if errors.Is(err, io.EOF) {
		ds.eof = true
		return nil
	}
	if err != nil {
		return err
	}
	ds.hi += n
	ds.got += int64(n)
	return nil
}

// FinishDiskScan closes the scan. With rewrite true, the bucket's on-disk
// portion is replaced by the records keep lists (ascending record
// numbers) plus whatever was spilled after the scan opened (the cursor's
// tail), so the rewrite is safe against appends that raced with the scan.
// A kept record is written back from the bytes read, under its
// StoredTuple's current PID and its DTS stamp, whether or not it was
// decoded. Finishing releases whatever the scan grew beyond the state's
// retention bound (scanRetainBytes); the decoded tuples stay valid until
// the next open.
func (st *State) FinishDiskScan(ds *DiskScan, keep []int, rewrite bool) error {
	if ds != &st.scan || !ds.open {
		return fmt.Errorf("store: state %s: finish of a scan that is not open", st.name)
	}
	defer st.closeScan()
	if !rewrite {
		return nil
	}
	b := &st.bkts[ds.i]
	size := 0
	for _, j := range keep {
		r := &ds.recs[j]
		size += recordSize(r.s.PID, r.end-r.tup)
	}
	buf := st.scratch(size)
	for _, j := range keep {
		r := &ds.recs[j]
		buf = append(appendHeader(buf, r.s.PID, r.s.DTS, r.end-r.tup), ds.buf[r.tup:r.end]...)
	}
	buf, err := ds.cur.Tail(buf)
	st.keepScratch(buf)
	if err != nil {
		return fmt.Errorf("store: state %s: scan tail bucket %d: %w", st.name, ds.i, err)
	}
	tailTuples := b.DiskTuples - ds.snapTuples
	if err := st.spill.Truncate(ds.i); err != nil {
		return fmt.Errorf("store: state %s: truncate bucket %d: %w", st.name, ds.i, err)
	}
	st.stats.DiskTuples -= b.DiskTuples
	st.stats.DiskBytes -= b.DiskBytes
	b.DiskTuples = 0
	b.DiskBytes = 0
	if len(buf) == 0 {
		return nil
	}
	if err := st.spill.Append(ds.i, buf); err != nil {
		return fmt.Errorf("store: state %s: rewrite bucket %d: %w", st.name, ds.i, err)
	}
	n := len(keep) + tailTuples
	b.DiskTuples = n
	b.DiskBytes = int64(len(buf))
	st.stats.DiskTuples += n
	st.stats.DiskBytes += int64(len(buf))
	return nil
}

// closeScan closes the open scan's cursor, keeping it for the next
// OpenDiskScan to re-arm, and brings the scan memory back under the
// retention bound.
func (st *State) closeScan() {
	ds := &st.scan
	ds.cur.Close()
	ds.open = false
	if len(ds.buf) > scanRetainBuf {
		ds.buf = nil
	}
	clear(ds.recs) // the keys' string payloads
	if cap(ds.recs) > scanRetainRecs {
		ds.recs = nil
	}
	st.arena.trim()
}

// MemBucketSkew summarises hash-bucket balance: the ratio of the fullest
// bucket's memory-resident tuple count to the mean over all buckets
// (1.0 = perfectly uniform, higher = more skewed). Returns 0 for an
// empty memory portion. This is the bucket-occupancy gauge the
// observability layer samples; the tracked maximum makes it O(1).
func (st *State) MemBucketSkew() float64 {
	if st.stats.MemTuples == 0 {
		return 0
	}
	mean := float64(st.stats.MemTuples) / float64(len(st.bkts))
	return float64(st.occ.max) / mean
}

// HasDisk reports whether bucket i has a non-empty on-disk portion.
func (st *State) HasDisk(i int) bool { return st.bkts[i].DiskTuples > 0 }

// AnyDisk reports whether any bucket has an on-disk portion.
func (st *State) AnyDisk() bool { return st.stats.DiskTuples > 0 }

// maxStoredRecord bounds a spill record's body length; a longer length
// prefix means corruption, not a huge tuple.
const maxStoredRecord = 1 << 30

// errShortRecord reports that a buffer ends before the record it starts
// does: a chunked scan keeps the bytes and retries once more arrive.
var errShortRecord = errors.New("store: spill record continues past buffer")

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendStored encodes a stored tuple: a uvarint body length, then the
// body — pid uvarint, DTS 8 bytes, tuple encoding with ATS in its Ts
// slot (the tuple's own Ts is not the state's business). The length
// prefix lets a chunked scan distinguish a record split across chunk
// boundaries from corruption.
func appendStored(dst []byte, s *StoredTuple) []byte {
	dst = appendHeader(dst, s.PID, s.DTS, s.T.EncodedSize())
	arrived := *s.T
	arrived.Ts = s.ATS
	return arrived.AppendBinary(dst)
}

// appendHeader appends what precedes a record's tuple encoding of n
// bytes: the body length, the pid and the DTS.
func appendHeader(dst []byte, pid punct.PID, dts stream.Time, n int) []byte {
	dst = binary.AppendUvarint(dst, uint64(uvarintLen(uint64(pid))+8+n))
	dst = binary.AppendUvarint(dst, uint64(pid))
	return binary.LittleEndian.AppendUint64(dst, uint64(dts))
}

// storedSize returns the number of bytes appendStored emits for s.
func storedSize(s *StoredTuple) int { return recordSize(s.PID, s.T.EncodedSize()) }

// recordSize returns the length of a record with the given pid whose
// tuple encoding takes n bytes.
func recordSize(pid punct.PID, n int) int {
	body := uvarintLen(uint64(pid)) + 8 + n
	return uvarintLen(uint64(body)) + body
}

// Spill-record decode errors: fixed values, so a failed decode allocates
// nothing either. DiskScan.Next adds the state and bucket.
var (
	errRecordLen      = errors.New("bad record length")
	errRecordPID      = errors.New("bad pid varint")
	errRecordDTS      = errors.New("truncated DTS")
	errRecordMismatch = errors.New("record length does not match contents")
)

// parseStored parses the spill record at the front of b to its header and
// the attr-th value of its tuple, into the arena, and returns it with the
// number of bytes consumed; the record's offsets are relative to b, and
// its StoredTuple has a nil T. errShortRecord means b ends inside the
// record.
//
//pjoin:hotpath
func (a *scanArena) parseStored(b []byte, attr int) (diskRec, int, error) {
	body, sz := binary.Uvarint(b)
	if sz == 0 {
		return diskRec{}, 0, errShortRecord
	}
	if sz < 0 || body == 0 || body > maxStoredRecord {
		return diskRec{}, 0, errRecordLen
	}
	if len(b) < sz+int(body) {
		return diskRec{}, 0, errShortRecord
	}
	rec := b[sz : sz+int(body)]
	pid, psz := binary.Uvarint(rec)
	if psz <= 0 {
		return diskRec{}, 0, errRecordPID
	}
	off := psz
	if len(rec) < off+8 {
		return diskRec{}, 0, errRecordDTS
	}
	dts := stream.Time(binary.LittleEndian.Uint64(rec[off:]))
	off += 8
	key, ats, n, err := a.tuples.DecodeKey(rec[off:], attr)
	if err != nil {
		return diskRec{}, 0, err
	}
	if off+n != len(rec) {
		return diskRec{}, 0, errRecordMismatch
	}
	s := &a.stored.Take(1)[0]
	*s = StoredTuple{PID: punct.PID(pid), ATS: ats, DTS: dts}
	end := sz + int(body)
	return diskRec{s: s, key: key, tup: sz + off, end: end}, end, nil
}
