package core

import (
	"testing"

	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// Equivalence regression for the incremental disk join: a PJoin whose
// disk passes run as chunked background tasks (DiskChunkBytes > 0) must
// emit exactly the result multiset and punctuation count of one whose
// passes block. The chunk budget is tiny (512 bytes) so a single pass
// spans many steps and the task is routinely in flight while tuples,
// punctuations, purges and further relocations interleave with it — the
// exactly-once argument of joinbase.ChunkPass under real traffic.
//
// Counters that only reflect *when* left-over work ran (DiskExamined,
// DiskPasses, DiskChunks, Purged, DroppedOnFly, IndexScanned,
// PurgeScanned) legitimately differ between the two schedules; the
// stable set below must not.
func TestChunkedBlockingEquivalence(t *testing.T) {
	for _, ec := range equivCases() {
		ec := ec
		t.Run(ec.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				gcfg := gen.Config{
					Seed:     seed,
					Duration: 1500 * stream.Millisecond,
					A:        gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 15},
					B:        gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 25, Batched: ec.batched},
				}
				arrs, err := gen.Synthetic(gcfg)
				if err != nil {
					t.Fatal(err)
				}

				build := func(chunkBytes int) (*PJoin, *op.Collector) {
					sink := &op.Collector{}
					cfg := Config{
						SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
						AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
					}
					ec.mutate(&cfg)
					cfg.DiskChunkBytes = chunkBytes
					j, err := New(cfg, sink)
					if err != nil {
						t.Fatal(err)
					}
					return j, sink
				}
				blocking, outBlk := build(0)
				chunked, outChk := build(512)
				driveEquiv(t, blocking, arrs)
				driveEquiv(t, chunked, arrs)

				diffMultisets(t, multiset(outChk.Tuples()), multiset(outBlk.Tuples()))
				if gb, gc := len(outBlk.Puncts()), len(outChk.Puncts()); gb != gc {
					t.Errorf("seed %d: propagated %d puncts blocking vs %d chunked", seed, gb, gc)
				}
				mb, mc := blocking.Metrics(), chunked.Metrics()
				type stable struct {
					tuplesInA, tuplesInB   int64
					punctsInA, punctsInB   int64
					tuplesOut, punctsOut   int64
					relocations, spilledTu int64
				}
				sb := stable{mb.TuplesIn[0], mb.TuplesIn[1], mb.PunctsIn[0], mb.PunctsIn[1],
					mb.TuplesOut, mb.PunctsOut, mb.Relocations, mb.SpilledTuples}
				sc := stable{mc.TuplesIn[0], mc.TuplesIn[1], mc.PunctsIn[0], mc.PunctsIn[1],
					mc.TuplesOut, mc.PunctsOut, mc.Relocations, mc.SpilledTuples}
				if sb != sc {
					t.Errorf("seed %d: stable counters diverge\nblocking: %+v\nchunked:  %+v", seed, sb, sc)
				}
				// A tiny budget over a relocating run must actually have
				// exercised the incremental machinery.
				if mc.Relocations > 0 && mc.DiskChunks == 0 {
					t.Errorf("seed %d: relocating chunked run executed no chunks", seed)
				}
				if t.Failed() {
					return
				}
			}
		})
	}
}
