package joinbase

import (
	"math"

	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/store"
	"pjoin/internal/stream"
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
//     before tPass).
//   - Spills that race with the pass append to the partition after the
//     cursor's snapshot end; the cursor never returns them (duplicate
//     safety) and the rewrite preserves them via the cursor's tail.
//
// Since reachability is monotone, every non-overlapping pair is still
// emitted exactly once: by the first pass whose bucket-open time
// reaches it.
type ChunkPass struct {
	b      *Base
	hooks  PassHooks
	budget int // bytes per chunk read
	pairs  int // pair checks per join step

	startExamined int64
	startJoins    int64

	bucket int // next bucket index to open
	cur    *chunkBucket

	// Scratch reused across buckets: only one bucket is in flight at a
	// time, and nothing below escapes a bucket's finalise.
	diskBuf [2][]*store.StoredTuple
	memBuf  [2][]*store.StoredTuple
	sideBuf [2][]*store.StoredTuple
}

// chunkBucket is the in-flight state of one bucket's pass.
type chunkBucket struct {
	i     int
	tPass stream.Time // bucket-open time: the pass's "now" for this bucket
	last  stream.Time // lastPass watermark when the bucket opened

	scans      [2]*store.DiskScan
	disk       [2][]*store.StoredTuple
	purge      [2][]*store.StoredTuple
	mem        [2][]*store.StoredTuple // snapshotted at open (see doc above)
	sides      [2][]*store.StoredTuple // disk ++ purge ++ mem
	indexDirty [2]bool                 // IndexDisk assigned a pid → rewrite must persist it

	readSide  int // 0, 1 while reading chunks; 2 = join phase
	assembled bool
	xi, yi    int // resumable nested-loop position
}

// pairsPerStep converts the byte budget into a pair-check budget for the
// join phase, so CPU-bound steps are bounded like I/O-bound ones.
func pairsPerStep(budget int) int {
	p := budget / 8
	if p < 64 {
		p = 64
	}
	return p
}

// StartChunkPass begins a disk pass whose steps read at most budget
// bytes each; budget <= 0 leaves the steps unbounded (a whole partition
// per read, a whole bucket per join step). The pass counts as one
// DiskPass; the caller drives it with Step until done.
func (b *Base) StartChunkPass(hooks PassHooks, budget int) *ChunkPass {
	if budget <= 0 {
		budget = math.MaxInt
	}
	b.M.DiskPasses++
	if hooks.OnPassStart != nil {
		hooks.OnPassStart()
	}
	return &ChunkPass{
		b: b, hooks: hooks, budget: budget, pairs: pairsPerStep(budget),
		startExamined: b.M.DiskExamined,
		startJoins:    b.M.DiskJoins,
	}
}

// Step performs one bounded unit of the pass at time now and reports
// whether the pass is complete. Cheap bookkeeping (skipping empty
// buckets, assembling sides) rides along with the next real unit.
func (p *ChunkPass) Step(now stream.Time) (bool, error) {
	b := p.b
	b.ResultSpans = span.ResultCap
	exBefore, joBefore := b.M.DiskExamined, b.M.DiskJoins
	for {
		if p.cur == nil {
			if p.bucket >= b.States[0].NumBuckets() {
				b.Obs.Event(obs.KindDiskPass, now, -1,
					b.M.DiskExamined-p.startExamined, b.M.DiskJoins-p.startJoins)
				return true, nil
			}
			cb, err := p.openBucket(p.bucket, now)
			if err != nil {
				return false, err
			}
			p.bucket++
			if cb == nil {
				continue
			}
			p.cur = cb
		}
		cb := p.cur

		// Read phase: one spill chunk per step, side 0 then side 1,
		// indexing disk tuples in spill order.
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
			if p.hooks.IndexDisk != nil {
				for _, dt := range cb.disk[s][before:] {
					pid := dt.PID
					p.hooks.IndexDisk(s, dt)
					if dt.PID != pid {
						cb.indexDirty[s] = true
					}
				}
			}
			if done {
				cb.readSide++
			}
			p.step(now, exBefore, joBefore)
			return false, nil
		}

		if !cb.assembled {
			for s := 0; s < 2; s++ {
				all := p.sideBuf[s][:0]
				all = append(all, cb.disk[s]...)
				all = append(all, cb.purge[s]...)
				all = append(all, cb.mem[s]...)
				cb.sides[s] = all
				p.sideBuf[s] = all
			}
			cb.assembled = true
		}

		// Join phase: one batch of pair checks per step, resuming the
		// nested loop where the last step left off; every predicate is
		// evaluated at the bucket-open time tPass.
		if cb.xi < len(cb.sides[0]) && len(cb.sides[1]) > 0 {
			pairs := p.pairs
			for cb.xi < len(cb.sides[0]) && pairs > 0 {
				x := cb.sides[0][cb.xi]
				kx := b.States[0].Key(x.T)
				ys := cb.sides[1]
				for cb.yi < len(ys) && pairs > 0 {
					y := ys[cb.yi]
					cb.yi++
					pairs--
					b.M.DiskExamined++
					if !b.States[1].Key(y.T).Equal(kx) {
						continue
					}
					if x.Overlaps(y) {
						continue // already joined by the memory join
					}
					if reachable(x, y, cb.last) {
						continue // already joined by an earlier pass
					}
					if !reachable(x, y, cb.tPass) {
						continue // a later pass's responsibility
					}
					if err := b.emitPair(0, x, y); err != nil {
						return false, err
					}
					b.M.DiskJoins++
				}
				if cb.yi >= len(ys) {
					cb.xi++
					cb.yi = 0
				}
			}
			if cb.xi < len(cb.sides[0]) {
				p.step(now, exBefore, joBefore)
				return false, nil
			}
		}

		// Bucket complete: discard the purge snapshot and rewrite the
		// disk portions — one finalise step per bucket.
		if err := p.finishBucket(cb, now); err != nil {
			return false, err
		}
		p.cur = nil
		p.step(now, exBefore, joBefore)
		return false, nil
	}
}

// step records one executed chunk step.
func (p *ChunkPass) step(now stream.Time, exBefore, joBefore int64) {
	p.b.M.DiskChunks++
	p.b.Obs.Event(obs.KindDiskChunk, now, -1,
		p.b.M.DiskExamined-exBefore, p.b.M.DiskJoins-joBefore)
}

// openBucket snapshots bucket i for the pass, or returns nil if the
// bucket has nothing to do (no disk data, no purge buffer).
func (p *ChunkPass) openBucket(i int, now stream.Time) (*chunkBucket, error) {
	b := p.b
	a, bb := b.States[0], b.States[1]
	if !a.HasDisk(i) && !bb.HasDisk(i) &&
		len(a.Bucket(i).PurgeBuf) == 0 && len(bb.Bucket(i).PurgeBuf) == 0 {
		return nil, nil
	}
	cb := &chunkBucket{i: i, tPass: now, last: b.lastPass[i]}
	if p.hooks.OnBucketOpen != nil {
		p.hooks.OnBucketOpen()
	}
	for s := 0; s < 2; s++ {
		st := b.States[s]
		ds, err := st.OpenDiskScan(i)
		if err != nil {
			b.Obs.SpillError(now, s, err)
			return nil, err
		}
		cb.scans[s] = ds
		cb.purge[s] = st.TakePurgeBuffer(i)
		cb.mem[s] = st.Bucket(i).AppendMem(p.memBuf[s][:0])
		p.memBuf[s] = cb.mem[s]
		cb.disk[s] = p.diskBuf[s][:0]
	}
	return cb, nil
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
		}
	}
	for s := 0; s < 2; s++ {
		ds := cb.scans[s]
		if ds == nil {
			continue
		}
		keep := cb.disk[s][:0]
		dropped := false
		for _, dt := range cb.disk[s] {
			if p.hooks.DropDisk != nil && p.hooks.DropDisk(s, dt) {
				if p.hooks.OnDiscard != nil {
					p.hooks.OnDiscard(s, dt)
				}
				b.M.Purged++
				dropped = true
				continue
			}
			keep = append(keep, dt)
		}
		// Rewrite when tuples were dropped or a pid assignment must
		// persist; a pure re-scan leaves the partition untouched.
		rewrite := dropped || cb.indexDirty[s]
		if err := b.States[s].FinishDiskScan(ds, keep, rewrite); err != nil {
			b.Obs.SpillError(now, s, err)
			return err
		}
		p.diskBuf[s] = cb.disk[s][:0]
	}
	b.lastPass[cb.i] = cb.tPass
	return nil
}
