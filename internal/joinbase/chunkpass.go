package joinbase

import (
	"math"
	"slices"

	"pjoin/internal/obs/span"
	"pjoin/internal/punct"
	"pjoin/internal/store"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// ChunkPass is one disk pass (paper §3.2) in resumable steps: for every
// bucket with disk-resident data or purge-buffer tuples on either side
// it finishes all newly reachable left-over joins (see the package
// comment for the exactly-once argument), clears the purge buffers, and
// rewrites the disk portions minus what DropDisk rejects. Each Step does
// one unit of work — reads one spill chunk, checks one batch of
// candidate pairs, or finalises one bucket — so under a byte budget the
// operator's hot path never stalls for longer than one chunk, and with
// no budget the same steps run back to back (PassDriver drains them).
//
// # Correctness under interleaving
//
// A bucket is opened at some time tPass: its purge buffer is taken, its
// memory portion snapshotted, and a spill cursor fixed over its on-disk
// bytes. Everything that happens to the bucket while the pass is in
// flight keeps the snapshot's pair decisions exact:
//
//   - New arrivals are not in the snapshot. Their ATS > tPass, so no
//     pair involving them is reachable at tPass — they are the next
//     pass's responsibility, which sees them because lastPass[i] is set
//     to tPass, not to a later time.
//   - Tuples that leave the memory portion mid-pass (relocation or
//     purge) only have their DTS stamped — the snapshot still holds the
//     pointers, and a DTS moving from InMemory to some T' > tPass
//     changes neither reachability at tPass nor overlap with any
//     snapshot tuple (overlap compares intervals that both started
//     before tPass). A wrapper freed meanwhile waits untouched in limbo
//     until the bucket's release (store.State.Hold).
//   - Spills that race with the pass append to the partition after the
//     cursor's snapshot end; the cursor never returns them (duplicate
//     safety) and the rewrite preserves them via the cursor's tail.
//
// Since reachability is monotone, every non-overlapping pair is still
// emitted exactly once: by the first pass whose bucket-open time
// reaches it.
//
// # Only fresh tuples make new pairs
//
// Call a snapshot tuple fresh when it arrived after the bucket's last
// pass or left memory since it: ATS > last, or last < DTS <= tPass. A
// pair with no fresh member is reachable at last or unreachable at tPass
// — if x.DTS <= tPass and x is not fresh then x.DTS <= last, and y.ATS <=
// last, so the pair was reachable at last — and the filter rejects it. So
// a bucket's sides hold only its fresh tuples and the others whose key is
// the key of a fresh tuple on the opposite side, in the order of the full
// sides (disk ++ purge ++ mem): every pair left out is one the filter
// rejects, so the result sequence is the full sides' sequence. A disk
// record is parsed to its header and key by the scan, selected and
// indexed by that key, and decoded in full only just before a pair it is
// in emits, or for IndexDisk; the rest is never decoded.
// A DTS stamped mid-pass (>= tPass) does not change what is emitted: a
// stamp above tPass classifies like InMemory, and a stamp at tPass makes
// a left-out tuple fresh only toward partners it overlaps or met by the
// last pass.
//
// A PassDriver owns one ChunkPass and re-arms it for every pass, so the
// scratch below lives as long as the driver: a warm pass allocates
// nothing.
type ChunkPass struct {
	b      *Base
	hooks  PassHooks
	budget int // bytes per chunk read
	pairs  int // pair checks per join step

	bucket int         // next bucket index to open
	cur    chunkBucket // the bucket in flight, when open is set
	open   bool
	keys   keyIndex
	fresh  [2]keyIndex // per side, over the bucket's fresh tuples: the keys a stale tuple must meet
	keep   []int       // the disk records a finalise writes back
}

// chunkBucket is the in-flight state of one bucket's pass. Its tuple
// slices are scratch kept from bucket to bucket and pass to pass: only
// one bucket is in flight at a time, and release clears every pointer in
// them at its finalise.
type chunkBucket struct {
	i     int
	tPass stream.Time // bucket-open time: the pass's "now" for this bucket
	last  stream.Time // lastPass watermark when the bucket opened

	scans      [2]*store.DiskScan
	disk       [2][]*store.StoredTuple // every record of the scan, in spill order; T nil until decoded
	purge      [2][]*store.StoredTuple
	mem        [2][]*store.StoredTuple // snapshotted at open (see doc above)
	fresh      [2][]sideTuple          // the fresh tuples of disk ++ purge ++ mem
	sides      [2][]sideTuple          // what can pair, of disk ++ purge ++ mem
	indexDirty [2]bool                 // IndexDisk assigned a pid → rewrite must persist it

	readSide  int // 0, 1 while reading chunks; 2 = join phase
	assembled bool
	// Resumable join position: sides[0][xi] is being joined; yi is the
	// next same-key candidate in sides[1], chainStart before x's chain has
	// been looked up, chainEnd once it is exhausted.
	xi, yi int
}

// sideTuple is a tuple of an assembled side and, for a disk record, its
// record number in the scan (else -1): a disk record's key comes from
// the scan, so the record is selected, indexed and joined with its T
// still nil until it is in a pair that emits.
type sideTuple struct {
	t   *store.StoredTuple
	rec int
}

// size returns the number of tuples of side s's disk ++ purge ++ mem.
func (cb *chunkBucket) size(s int) int { return len(cb.disk[s]) + len(cb.purge[s]) + len(cb.mem[s]) }

// at returns tuple i of side s's disk ++ purge ++ mem.
func (cb *chunkBucket) at(s, i int) sideTuple {
	if i < len(cb.disk[s]) {
		return sideTuple{cb.disk[s][i], i}
	}
	if i -= len(cb.disk[s]); i < len(cb.purge[s]) {
		return sideTuple{cb.purge[s][i], -1}
	}
	return sideTuple{cb.mem[s][i-len(cb.purge[s])], -1}
}

// sideKey returns the join key of a tuple of st's side, whose disk
// records ds parsed.
func sideKey(st *store.State, ds *store.DiskScan, e sideTuple) value.Value {
	if e.rec >= 0 {
		return ds.Key(e.rec)
	}
	return st.Key(e.t.T)
}

// isFresh reports whether s arrived after the bucket's last pass or left
// memory since it, by the bucket-open time (see ChunkPass).
func (cb *chunkBucket) isFresh(s *store.StoredTuple) bool {
	return s.ATS > cb.last || (cb.last < s.DTS && s.DTS <= cb.tPass)
}

// keyIndex is the pass's scratch index over one assembled bucket side:
// join key → the chain of that side's tuples carrying it, in side order.
// It is what makes a bucket's join phase cost its same-key pairs instead
// of |sides[0]| × |sides[1]| key comparisons. Open addressing over the
// state's own value hash, equality confirmed on the chain head's key, so
// colliding hashes only lengthen a lookup.
type keyIndex struct {
	st    *store.State    // the indexed side's state: its hash, its key attribute
	ds    *store.DiskScan // the indexed side's scan: its records' keys
	ys    []sideTuple     // the indexed side
	slots []int32         // 1 + position of a chain's first tuple, 0 = empty
	next  []int32         // next[j]: position of the next tuple with ys[j]'s key, or chainEnd
	shift uint            // 64 - log2(len(slots))
}

const (
	chainStart = -2
	chainEnd   = -1
)

// slot returns the slot holding key's chain, or the empty slot where it
// would go. The bucket's tuples agree on hash % nbuckets, so the slot
// comes from a multiplicative mix of the whole hash, not its low bits.
func (ix *keyIndex) slot(key value.Value) int {
	mask := len(ix.slots) - 1
	for i := int(ix.st.Hash(key) * 0x9E3779B97F4A7C15 >> ix.shift); ; i = (i + 1) & mask {
		head := ix.slots[i]
		if head == 0 || sideKey(ix.st, ix.ds, ix.ys[head-1]).Equal(key) {
			return i
		}
	}
}

// tableSize returns the slot count for n tuples, the least power of two
// (at least 4) that is at least 2n, and its shift.
func tableSize(n int) (int, uint) {
	size, shift := 4, uint(62)
	for size < 2*n {
		size, shift = size<<1, shift-1
	}
	return size, shift
}

// reserve grows the index's scratch to take n tuples without allocating.
func (ix *keyIndex) reserve(n int) {
	if size, _ := tableSize(n); cap(ix.slots) < size {
		ix.slots = make([]int32, size)
	}
	if cap(ix.next) < n {
		ix.next = make([]int32, n)
	}
}

// build indexes ys (a side of st's bucket; fewer than 2^30 tuples).
// Chains come out in ys order because the tuples are pushed back to
// front.
func (ix *keyIndex) build(st *store.State, ds *store.DiskScan, ys []sideTuple) {
	ix.reserve(len(ys))
	size, shift := tableSize(len(ys))
	ix.slots = ix.slots[:size]
	clear(ix.slots)
	ix.st, ix.ds, ix.ys, ix.next, ix.shift = st, ds, ys, ix.next[:len(ys)], shift
	for j := len(ys) - 1; j >= 0; j-- {
		i := ix.slot(sideKey(st, ds, ys[j]))
		ix.next[j] = ix.slots[i] - 1 // an empty slot's 0 becomes chainEnd
		ix.slots[i] = int32(j) + 1
	}
}

// first returns the position of the first indexed tuple with the given
// key, or chainEnd.
func (ix *keyIndex) first(key value.Value) int { return int(ix.slots[ix.slot(key)]) - 1 }

// has reports whether an indexed tuple has the given key.
func (ix *keyIndex) has(key value.Value) bool { return ix.first(key) != chainEnd }

// pairsPerStep converts the byte budget into the join phase's work
// budget per step — same-key candidate pairs visited plus side-0 tuples
// advanced past — so CPU-bound steps are bounded like I/O-bound ones.
func pairsPerStep(budget int) int {
	p := budget / 8
	if p < 64 {
		p = 64
	}
	return p
}

// newChunkPass returns b's disk pass whose steps read at most budget
// bytes each; budget <= 0 leaves the steps unbounded (a whole partition
// per read, a whole bucket per join step).
func newChunkPass(b *Base, hooks PassHooks, budget int) ChunkPass {
	if budget <= 0 {
		budget = math.MaxInt
	}
	return ChunkPass{b: b, hooks: hooks, budget: budget, pairs: pairsPerStep(budget)}
}

// start re-arms the pass at the first bucket. It counts as one
// DiskPass; the caller drives it with Step until done.
func (p *ChunkPass) start() {
	p.bucket = 0
	p.b.M.DiskPasses++
	if p.hooks.OnPassStart != nil {
		p.hooks.OnPassStart()
	}
}

// Step performs one bounded unit of the pass at time now and reports
// whether the pass is complete. Cheap bookkeeping (skipping empty
// buckets, assembling sides) rides along with the next real unit.
func (p *ChunkPass) Step(now stream.Time) (bool, error) {
	b := p.b
	b.ResultSpans = span.ResultCap
	for {
		if !p.open {
			if p.bucket >= b.States[0].NumBuckets() {
				return true, nil
			}
			err := p.openBucket(p.bucket, now)
			if err != nil {
				return false, err
			}
			p.bucket++
			if !p.open {
				continue
			}
		}
		cb := &p.cur

		// Read phase: one spill chunk per step, side 0 then side 1, parsing
		// the records in spill order and decoding those IndexDisk must see.
		if cb.readSide < 2 {
			s := cb.readSide
			ds := cb.scans[s]
			if ds == nil {
				cb.readSide++
				continue
			}
			before := len(cb.disk[s])
			var done bool
			var err error
			cb.disk[s], done, err = ds.Next(p.budget, cb.disk[s])
			if err != nil {
				b.Obs.SpillError(now, s, err)
				return false, err
			}
			for j := before; p.hooks.IndexDisk != nil && j < len(cb.disk[s]); j++ {
				dt := cb.disk[s][j]
				if dt.PID != punct.NoPID {
					continue
				}
				if err := p.decode(cb, s, j, now); err != nil {
					return false, err
				}
				p.hooks.IndexDisk(s, dt)
				cb.indexDirty[s] = cb.indexDirty[s] || dt.PID != punct.NoPID
			}
			if done {
				cb.readSide++
			}
			b.M.DiskChunks++
			return false, nil
		}

		if !cb.assembled {
			p.assemble(cb)
			cb.assembled = true
		}

		// Join phase: one batch of candidate pairs per step. Every x of
		// side 0, in order, meets the side-1 tuples with its key, in side
		// order — the order a nested loop over both sides produces its
		// matches in — resuming where the last step left off; every
		// predicate is evaluated at the bucket-open time tPass, and a disk
		// record is decoded only for a pair that emits.
		if xs, ys := cb.sides[0], cb.sides[1]; cb.xi < len(xs) && len(ys) > 0 {
			for pairs := p.pairs; cb.xi < len(xs) && pairs > 0; {
				x := xs[cb.xi]
				if cb.yi == chainStart {
					cb.yi = p.keys.first(sideKey(b.States[0], cb.scans[0], x))
				}
				for cb.yi != chainEnd && pairs > 0 {
					y := ys[cb.yi]
					cb.yi = int(p.keys.next[cb.yi])
					pairs--
					b.M.DiskExamined++
					if x.t.Overlaps(y.t) {
						continue // already joined by the memory join
					}
					if reachable(x.t, y.t, cb.last) {
						continue // already joined by an earlier pass
					}
					if !reachable(x.t, y.t, cb.tPass) {
						continue // a later pass's responsibility
					}
					if err := p.decode(cb, 0, x.rec, now); err != nil {
						return false, err
					}
					if err := p.decode(cb, 1, y.rec, now); err != nil {
						return false, err
					}
					if err := b.emitPair(0, x.t, y.t); err != nil {
						return false, err
					}
					b.M.DiskJoins++
				}
				if cb.yi == chainEnd {
					cb.xi++
					cb.yi = chainStart
					pairs--
				}
			}
			if cb.xi < len(xs) {
				b.M.DiskChunks++
				return false, nil
			}
		}

		// Bucket complete: discard the purge snapshot and rewrite the
		// disk portions — one finalise step per bucket.
		if err := p.finishBucket(cb, now); err != nil {
			return false, err
		}
		p.release()
		b.M.DiskChunks++
		return false, nil
	}
}

// decode decodes side s's disk record j in full, unless j is -1 (not a
// disk record) or the record is decoded already, and counts it.
func (p *ChunkPass) decode(cb *chunkBucket, s, j int, now stream.Time) error {
	if j < 0 || cb.disk[s][j].T != nil {
		return nil
	}
	if err := cb.scans[s].Decode(j); err != nil {
		p.b.Obs.SpillError(now, s, err)
		return err
	}
	p.b.M.DiskDecoded++
	return nil
}

// assemble selects the bucket's sides: every fresh tuple, and every other
// tuple whose key a fresh tuple of the opposite side has (see ChunkPass),
// each side in disk ++ purge ++ mem order, a disk record by the key its
// scan parsed; then it indexes side 1 for the join phase. The fresh-key
// indexes are sized for the whole side, as the selection is, even when
// not built: a first pass finds every tuple fresh and builds none, and
// the pass after it must find their scratch ready.
func (p *ChunkPass) assemble(cb *chunkBucket) {
	b := p.b
	var stale [2]bool // side s has a tuple that is not fresh
	for s := 0; s < 2; s++ {
		n := cb.size(s)
		cb.fresh[s], cb.sides[s] = slices.Grow(cb.fresh[s], n), slices.Grow(cb.sides[s], n)
		p.fresh[s].reserve(n)
		for i := range n {
			if e := cb.at(s, i); cb.isFresh(e.t) {
				cb.fresh[s] = append(cb.fresh[s], e)
			} else {
				stale[s] = true
			}
		}
	}
	// A stale tuple pairs only with a fresh one of the same key: side s
	// looks its stale tuples up in the other side's fresh keys, if both
	// exist.
	var look [2]bool
	for s := 0; s < 2; s++ {
		if look[s] = stale[s] && len(cb.fresh[1-s]) > 0; look[s] {
			p.fresh[1-s].build(b.States[1-s], cb.scans[1-s], cb.fresh[1-s])
		}
	}
	for s := 0; s < 2; s++ {
		st, ds, keys := b.States[s], cb.scans[s], &p.fresh[1-s]
		for i := range cb.size(s) {
			if e := cb.at(s, i); cb.isFresh(e.t) || look[s] && keys.has(sideKey(st, ds, e)) {
				cb.sides[s] = append(cb.sides[s], e)
			}
		}
	}
	if len(cb.sides[0]) > 0 && len(cb.sides[1]) > 0 {
		p.keys.build(b.States[1], cb.scans[1], cb.sides[1])
	}
}

// release ends the bucket in flight, if any: it clears every tuple
// pointer in the bucket's scratch and empties the slices for the next
// bucket, so between buckets, and so between passes, the pass pins no
// purged, spilled or decoded tuple; and it unholds the states.
func (p *ChunkPass) release() {
	cb := &p.cur
	for _, bufs := range [...]*[2][]*store.StoredTuple{&cb.disk, &cb.purge, &cb.mem} {
		for s := range bufs {
			clear(bufs[s])
			bufs[s] = bufs[s][:0]
		}
	}
	for _, bufs := range [...]*[2][]sideTuple{&cb.fresh, &cb.sides} {
		for s := range bufs {
			clear(bufs[s])
			bufs[s] = bufs[s][:0]
		}
	}
	for _, ix := range [...]*keyIndex{&p.keys, &p.fresh[0], &p.fresh[1]} {
		ix.st, ix.ds, ix.ys = nil, nil, nil
	}
	p.b.States[0].Unhold()
	p.b.States[1].Unhold()
	p.open = false
}

// openBucket snapshots bucket i into p.cur and sets p.open, unless the
// bucket has nothing to do (no disk data, no purge buffer).
func (p *ChunkPass) openBucket(i int, now stream.Time) error {
	b := p.b
	a, bb := b.States[0], b.States[1]
	if !a.HasDisk(i) && !bb.HasDisk(i) &&
		len(a.Bucket(i).PurgeBuf) == 0 && len(bb.Bucket(i).PurgeBuf) == 0 {
		return nil
	}
	cb := &p.cur
	*cb = chunkBucket{i: i, tPass: now, last: b.lastPass[i], yi: chainStart,
		disk: cb.disk, purge: cb.purge, mem: cb.mem, fresh: cb.fresh, sides: cb.sides}
	if p.hooks.OnBucketOpen != nil {
		p.hooks.OnBucketOpen()
	}
	for s := 0; s < 2; s++ {
		st := b.States[s]
		st.Hold() // the snapshot below outlives this step: release unholds
		ds, err := st.OpenDiskScan(i)
		if err != nil {
			b.Obs.SpillError(now, s, err)
			return err
		}
		cb.scans[s] = ds
		cb.purge[s] = st.TakePurgeBuffer(i, cb.purge[s])
		cb.mem[s] = st.Bucket(i).AppendMem(cb.mem[s])
	}
	p.open = true
	return nil
}

// finishBucket discards the purge snapshot, filters the disk snapshot
// through DropDisk, and rewrites the on-disk portion when needed.
func (p *ChunkPass) finishBucket(cb *chunkBucket, now stream.Time) error {
	b := p.b
	for s := 0; s < 2; s++ {
		for _, pt := range cb.purge[s] {
			if p.hooks.OnDiscard != nil {
				p.hooks.OnDiscard(s, pt)
			}
			b.States[s].Free(pt)
		}
	}
	for s := 0; s < 2; s++ {
		ds := cb.scans[s]
		if ds == nil {
			continue
		}
		p.keep = p.keep[:0]
		for j, dt := range cb.disk[s] {
			if p.hooks.DropDisk != nil && p.hooks.DropDisk(s, ds.Key(j), ds.Size(j)) {
				if p.hooks.OnDiscard != nil {
					p.hooks.OnDiscard(s, dt)
				}
				b.M.Purged++
				continue
			}
			p.keep = append(p.keep, j)
		}
		// Rewrite when tuples were dropped or a pid assignment must
		// persist; a pure re-scan leaves the partition untouched.
		rewrite := len(p.keep) < len(cb.disk[s]) || cb.indexDirty[s]
		if err := b.States[s].FinishDiskScan(ds, p.keep, rewrite); err != nil {
			b.Obs.SpillError(now, s, err)
			return err
		}
	}
	b.lastPass[cb.i] = cb.tPass
	return nil
}
