package parallel

import (
	"fmt"
	"testing"

	"pjoin/internal/gen"
	"pjoin/internal/stream"
)

// TestShardedChunkedMatchesSingleBlocking is the sharding face of the
// incremental-disk-join equivalence: a sharded join whose shards run
// chunked background disk passes must emit exactly the output multiset
// of a single-instance blocking PJoin. The spilling configuration keeps
// every shard's disk task routinely in flight while the router
// interleaves tuples and punctuations, and the tiny budget splits each
// pass into many steps.
//
// The comparison is exact because a released punctuation stays in force
// (see the package doc): the RELEASE schedule does not feed back into
// pid assignment, which it would if a released entry left the set and
// could no longer index late-read disk tuples.
func TestShardedChunkedMatchesSingleBlocking(t *testing.T) {
	gc := gen.Config{
		MaxTuples: 1200, Duration: 1 << 62, WindowKeys: 16,
		A: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 30},
		B: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 30},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("index=true/seed%d", seed), func(t *testing.T) {
			gc := gc
			gc.Seed = seed
			arrs, err := gen.Synthetic(gc)
			if err != nil {
				t.Fatal(err)
			}
			cfg := baseConfig()
			cfg.Thresholds.MemoryBytes = 2 << 10 // force relocation even at 4 shards
			cfg.Thresholds.DiskJoinIdle = 1
			want := runSingle(t, cfg, arrs)

			chunked := cfg
			chunked.DiskChunkBytes = 512
			for _, n := range []int{1, 2, 4} {
				got, j := runSharded(t, chunked, n, arrs)
				if d := diffMultisets(want.tuples, got.tuples); d != "" {
					t.Errorf("shards=%d: tuple multiset differs: %s", n, d)
				}
				if d := diffMultisets(want.puncts, got.puncts); d != "" {
					t.Errorf("shards=%d: punctuation multiset differs: %s", n, d)
				}
				var relocations, chunks int64
				for _, pj := range j.shards {
					m := pj.Metrics()
					relocations, chunks = relocations+m.Relocations, chunks+m.DiskChunks
				}
				if relocations > 0 && chunks == 0 {
					t.Errorf("shards=%d: relocating chunked shards executed no chunks", n)
				}
			}
		})
	}
}
