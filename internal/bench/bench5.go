package bench

// This file implements the incremental-disk-join latency sweep behind
// `pjoinbench -bench5` (BENCH_5.json). BENCH_4 exposed the cost of
// under-punctuating: at sparse punctuation (mean 160 tuples) the state
// outgrows the 32 KiB memory threshold, results ride blocking disk
// passes, and the result-latency tail stretches to seconds — the
// operator stalls for a whole pass while arrivals queue. This sweep
// measures the fix: the same workload with the disk join running as an
// incremental background task (Config.DiskChunkBytes), crossed over
// per-step chunk budgets, under both price lists, with the spill stores
// wrapped in an LRU block cache (store.CachedSpill). The chunk budget
// bounds how long any single scheduling step can occupy the operator,
// so the latency tail is set by pass *progress rate* instead of pass
// *duration*; the cache absorbs re-reads of hot spilled partitions, and
// its hit ratio is reported per cell. Chunk budget 0 is the blocking
// baseline: the same pass, drained inside the call that schedules it. Result multisets are invariant across every cell of one
// rate (the equivalence tests prove it; the sweep re-checks TuplesOut).

import (
	"encoding/json"
	"fmt"
	"io"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/store"
	"pjoin/internal/stream"
)

// Bench5Cell is one (punct rate, price list, chunk budget) measurement.
type Bench5Cell struct {
	// ChunkKB is the per-step disk read budget in KiB; 0 = every pass
	// run to completion (the blocking baseline).
	ChunkKB       int        `json:"chunk_kb"`
	TuplesOut     int64      `json:"tuples_out"`
	PunctsOut     int64      `json:"puncts_out"`
	DiskPasses    int64      `json:"disk_passes"`
	DiskChunks    int64      `json:"disk_chunks"`
	SpilledTuples int64      `json:"spilled_tuples"`
	ResultLatency Bench4Dist `json:"result_latency"`
	// Cache behaviour: lookup counters of the two states' block caches
	// and the post-cache spill traffic (only what the cache didn't
	// absorb is charged by the simulator).
	CacheHitRatio  float64 `json:"cache_hit_ratio"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheEvictions int64   `json:"cache_evictions"`
	SpillReadOps   int64   `json:"spill_read_ops"`
	SpillBytesRead int64   `json:"spill_bytes_read"`
}

// Bench5Rate is one punctuation inter-arrival setting swept over chunk
// budgets under both price lists.
type Bench5Rate struct {
	PunctMean int          `json:"punct_mean"`
	Scan      []Bench5Cell `json:"scan"`
	Indexed   []Bench5Cell `json:"indexed"`
}

// Bench5 is the full incremental-disk-join report.
type Bench5 struct {
	Note  string       `json:"note"`
	Seed  uint64       `json:"seed"`
	Rates []Bench5Rate `json:"rates"`
}

// Bench5Rates is the punctuation sweep: the moderate setting where
// memory mostly keeps up, and BENCH_4's sparse setting where the
// blocking disk join stalled for ~2 virtual seconds.
var Bench5Rates = []int{40, 160}

// Bench5ChunkKBs is the chunk-budget sweep (KiB per step; 0 = blocking
// baseline).
var Bench5ChunkKBs = []int{0, 16, 64, 256}

// bench5SpillCacheMB is the block-cache budget per spill store.
const bench5SpillCacheMB = 4

func bench5Cell(rc RunConfig, punctMean, chunkKB int, indexed bool) (Bench5Cell, error) {
	horizon := rc.horizon(defShort)
	arrs, err := gen.Synthetic(gen.Config{
		Seed:     rc.seed(),
		Duration: horizon,
		A:        gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: float64(punctMean)},
		B:        gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: float64(punctMean)},
	})
	if err != nil {
		return Bench5Cell{}, err
	}
	capBytes := int64(bench5SpillCacheMB) << 20
	spillA := store.NewCachedSpill(store.NewMemSpill(), capBytes)
	spillB := store.NewCachedSpill(store.NewMemSpill(), capBytes)
	rc.Indexed = indexed
	name := fmt.Sprintf("pjoin-pm%d-c%dk", punctMean, chunkKB)
	pj, err := pjoinFor(rc, name, 1, func(c *core.Config) {
		c.DisablePropagation = false
		c.Thresholds.PropagateCount = 1 // propagate as soon as the state allows
		c.Thresholds.MemoryBytes = 32 << 10
		c.DiskChunkBytes = chunkKB << 10
		c.SpillA, c.SpillB = spillA, spillB
	})
	if err != nil {
		return Bench5Cell{}, err
	}
	// Unlike bench4, spill traffic is charged (sim.Config.Spills): a
	// blocking pass's re-reads land on the virtual clock, so the cache's
	// absorbed reads are visible in the latency column, not only in the
	// hit ratio. CachedSpill.Stats reports the inner store's traffic —
	// exactly the reads the cache did not absorb.
	res, err := rc.simulate(pj, arrs, horizon, spillA, spillB)
	if err != nil {
		return Bench5Cell{}, err
	}
	lat := pj.Latencies()
	csA, csB := spillA.CacheStats(), spillB.CacheStats()
	merged := store.CacheStats{
		Hits:      csA.Hits + csB.Hits,
		Misses:    csA.Misses + csB.Misses,
		Evictions: csA.Evictions + csB.Evictions,
	}
	return Bench5Cell{
		ChunkKB:        chunkKB,
		TuplesOut:      res.Final.TuplesOut,
		PunctsOut:      res.Final.PunctsOut,
		DiskPasses:     res.Final.DiskPasses,
		DiskChunks:     res.Final.DiskChunks,
		SpilledTuples:  res.Final.SpilledTuples,
		ResultLatency:  bench4Dist(lat.Result),
		CacheHitRatio:  merged.HitRatio(),
		CacheHits:      merged.Hits,
		CacheMisses:    merged.Misses,
		CacheEvictions: merged.Evictions,
		SpillReadOps:   res.IO.ReadOps,
		SpillBytesRead: res.IO.BytesRead,
	}, nil
}

// RunBench5 runs the chunk-budget sweep at the given workload seed.
// progress (optional) receives one line per cell.
func RunBench5(seed uint64, quick bool, progress io.Writer) (*Bench5, error) {
	if progress == nil {
		progress = io.Discard
	}
	out := &Bench5{
		Note: "incremental disk join sweep over BENCH_4's workload (eager purge, " +
			"PropagateCount=1, 32KiB memory threshold), spill stores behind a " +
			fmt.Sprintf("%dMiB LRU block cache, spill I/O charged by the simulator. ", bench5SpillCacheMB) +
			"chunk_kb = per-step disk read budget (0 = blocking pass). " +
			"result latency is virtual-time ns; tuples_out must agree across every " +
			"cell of one rate (chunking reschedules left-over joins, never changes them). " +
			"The blocking cell reproduces BENCH_4's stall at punct-mean 160; the " +
			"chunked cells bound it by pass progress rate instead of pass duration.",
		Seed: seed,
	}
	rc := RunConfig{Seed: seed, Quick: quick}
	for _, pm := range Bench5Rates {
		rate := Bench5Rate{PunctMean: pm}
		for _, ckb := range Bench5ChunkKBs {
			fmt.Fprintf(progress, "punct-mean %d chunk %dKiB: scan + indexed runs...\n", pm, ckb)
			scan, err := bench5Cell(rc, pm, ckb, false)
			if err != nil {
				return nil, fmt.Errorf("bench5: punct-mean %d chunk %dKiB (scan): %w", pm, ckb, err)
			}
			indexed, err := bench5Cell(rc, pm, ckb, true)
			if err != nil {
				return nil, fmt.Errorf("bench5: punct-mean %d chunk %dKiB (indexed): %w", pm, ckb, err)
			}
			rate.Scan = append(rate.Scan, scan)
			rate.Indexed = append(rate.Indexed, indexed)
		}
		out.Rates = append(out.Rates, rate)
	}
	return out, nil
}

// WriteJSON renders the report as indented JSON.
func (b *Bench5) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
