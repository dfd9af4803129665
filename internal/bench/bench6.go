package bench

// This file implements the batched-dataflow sweep behind `pjoinbench
// -bench6` (BENCH_6.json). Batches larger than one exist to amortize
// per-tuple overhead — channel sends, operator wakeups, and repeated hash+lookup
// work for runs of identical keys — without changing what the operator
// computes (the oracle's batched matrix rows are the semantics proof;
// this report is the performance receipt). Two measurements:
//
//   - Probe micro: the BENCH_3 probe workload (1024-occupancy bucket,
//     4 matches on the hot key) probed per item (fresh ProbeMem per
//     call) vs through the seq-guarded memoizing probe
//     (store.ProbeMemCached) over same-key runs of batch length N —
//     one real probe plus N−1 cache hits per batch, the store-level
//     saving a vectorized batch probe realizes. The acceptance bar is
//     ≥ 1.5× per-probe speedup at batch 256.
//
//   - Exec sweep: a live two-source → PJoin → sink pipeline
//     (internal/exec) over the standard symmetric workload, swept over
//     batch size × linger. Reports wall-clock tuples/sec, the
//     punctuation-propagation delay distribution (linger 0 must stay
//     within 2× of batch size 1 — punctuations always cut batches), and
//     the realized batch fill.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"testing"
	"time"

	"pjoin/internal/core"
	"pjoin/internal/exec"
	"pjoin/internal/gen"
	"pjoin/internal/store"
	"pjoin/internal/stream"
)

// Bench6Probe is one probe-micro cell: per-probe cost per item vs
// through the memoizing probe over same-key runs of the given length.
type Bench6Probe struct {
	Batch           int     `json:"batch"`
	PerItemNsProbe  float64 `json:"per_item_ns_probe"`
	BatchedNsProbe  float64 `json:"batched_ns_probe"`
	Speedup         float64 `json:"speedup"`
	BatchedAllocsOp int64   `json:"batched_allocs_op"`
}

// Bench6Exec is one live-pipeline cell of the batch × linger sweep.
type Bench6Exec struct {
	Batch         int        `json:"batch"`
	LingerMs      int        `json:"linger_ms"`
	WallMs        float64    `json:"wall_ms"`
	TuplesIn      int64      `json:"tuples_in"`
	TuplesOut     int64      `json:"tuples_out"`
	PunctsOut     int64      `json:"puncts_out"`
	TuplesPerSec  float64    `json:"tuples_per_sec"`
	PunctDelay    Bench4Dist `json:"punct_delay"`
	Batches       int64      `json:"batches"`
	BatchFillMean float64    `json:"batch_fill_mean"`
}

// Bench6 is the full batched-dataflow report.
type Bench6 struct {
	Note  string        `json:"note"`
	Seed  uint64        `json:"seed"`
	Probe []Bench6Probe `json:"probe_micro"`
	Exec  []Bench6Exec  `json:"exec_sweep"`
}

// Bench6Batches is the probe-run batch-size sweep.
var Bench6Batches = []int{8, 64, 256}

// Bench6ExecCells is the pipeline sweep: the batch-size-1 baseline (the
// exec default, one item per delivery), then batch × linger. Linger 0 flushes every Emit (latency-neutral batching), 1 ms
// trades bounded added latency for fill.
var Bench6ExecCells = []struct{ Batch, LingerMs int }{
	{1, 0}, {8, 0}, {8, 1}, {256, 0}, {256, 1},
}

func bench6Probe(n int) (Bench6Probe, error) {
	st, key, err := bench3ProbeState(1024, 4)
	if err != nil {
		return Bench6Probe{}, err
	}
	dst := make([]*store.StoredTuple, 0, 8)
	perItem := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				dst, _ = st.ProbeMem(key, dst[:0])
			}
		}
	})
	var mp store.MemProbe
	batched := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// One batch boundary per run of n: the driver invalidates the
			// memoized probe between batches (joinbase.InvalidateProbeCache),
			// so each run pays one real probe and n−1 cache hits.
			mp.Release()
			for j := 0; j < n; j++ {
				st.ProbeMemCached(key, &mp)
			}
		}
	})
	pi := float64(perItem.NsPerOp()) / float64(n)
	ba := float64(batched.NsPerOp()) / float64(n)
	return Bench6Probe{
		Batch:           n,
		PerItemNsProbe:  pi,
		BatchedNsProbe:  ba,
		Speedup:         pi / ba,
		BatchedAllocsOp: batched.AllocsPerOp(),
	}, nil
}

// bench6Exec measures one exec cell. Full runs repeat the cell and keep
// the fastest rep — these are second-scale wall-clock pipeline runs on
// a shared machine, and best-of-N is the standard way to strip
// scheduler noise and cold-start effects from a throughput figure (the
// output invariants hold on every rep regardless; bench6_test.go pins
// them). Quick runs do one rep.
func bench6Exec(rc RunConfig, batch, lingerMs int) (Bench6Exec, error) {
	reps := 3
	if rc.Quick {
		reps = 1
	}
	var best Bench6Exec
	for r := 0; r < reps; r++ {
		cell, err := bench6ExecOnce(rc, batch, lingerMs)
		if err != nil {
			return Bench6Exec{}, err
		}
		if r == 0 || cell.WallMs < best.WallMs {
			best = cell
		}
	}
	return best, nil
}

func bench6ExecOnce(rc RunConfig, batch, lingerMs int) (Bench6Exec, error) {
	arrs, _, err := symmetricWorkload(rc, defShort, 50)
	if err != nil {
		return Bench6Exec{}, err
	}
	var itemsA, itemsB []stream.Item
	for _, a := range arrs {
		if a.Port == 0 {
			itemsA = append(itemsA, a.Item)
		} else {
			itemsB = append(itemsB, a.Item)
		}
	}
	p := exec.NewPipeline()
	p.BatchSize = batch
	p.BatchLinger = time.Duration(lingerMs) * time.Millisecond
	srcA, srcB, out := p.Edge(), p.Edge(), p.Edge()
	cfg := core.Config{
		SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
		AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
	}
	cfg.Thresholds.Purge = 1          // eager purge: state stays small, per-tuple overhead dominates
	cfg.Thresholds.PropagateCount = 1 // propagate as soon as the state allows
	pj, err := core.New(cfg, out)
	if err != nil {
		return Bench6Exec{}, err
	}
	if err := p.Spawn(pj, srcA, srcB); err != nil {
		return Bench6Exec{}, err
	}
	p.Sink(out)
	p.SourceItems(srcA, itemsA, false)
	p.SourceItems(srcB, itemsB, false)
	start := time.Now()
	if err := p.Run(context.Background()); err != nil {
		return Bench6Exec{}, err
	}
	wall := time.Since(start)
	m := pj.Metrics()
	lat := pj.Latencies()
	in := m.TuplesIn[0] + m.TuplesIn[1]
	return Bench6Exec{
		Batch:         batch,
		LingerMs:      lingerMs,
		WallMs:        float64(wall.Nanoseconds()) / 1e6,
		TuplesIn:      in,
		TuplesOut:     m.TuplesOut,
		PunctsOut:     m.PunctsOut,
		TuplesPerSec:  float64(in) / wall.Seconds(),
		PunctDelay:    bench4Dist(lat.PunctDelay),
		Batches:       m.Batches,
		BatchFillMean: lat.BatchFill.Mean(),
	}, nil
}

// RunBench6 runs the batched-dataflow sweep at the given workload seed.
// When rc.Batch > 1, the exec sweep runs only the {rc.Batch,
// rc.BatchLingerMs} cell next to the batch-size-1 baseline (`pjoinbench
// -bench6 out.json -batch 256 -batch-linger-ms 1`); otherwise it runs
// the full grid. progress (optional) receives one line per cell.
func RunBench6(rc RunConfig, progress io.Writer) (*Bench6, error) {
	if progress == nil {
		progress = io.Discard
	}
	out := &Bench6{
		Note: "batched dataflow sweep. probe_micro: BENCH_3's probe workload per item vs " +
			"the seq-guarded memoizing probe over same-key runs (one real probe + N-1 cache " +
			"hits per batch); speedup at batch 256 must be >= 1.5x. exec_sweep: live " +
			"two-source -> pjoin -> sink pipeline (eager purge, PropagateCount=1, indexed), " +
			"wall-clock throughput and punct-propagation delay per batch x linger cell; " +
			"linger 0 cuts a batch on every emit so its punct delay must stay within 2x of " +
			"batch size 1, linger 1ms trades that bound for fill. batch_fill_mean is items per " +
			"delivered batch as the operator saw them. exec cells are best-of-3 reps " +
			"(fastest wall clock) to strip scheduler noise; outputs are identical on every rep.",
		Seed: rc.seed(),
	}
	for _, n := range Bench6Batches {
		fmt.Fprintf(progress, "probe micro: batch %d...\n", n)
		cell, err := bench6Probe(n)
		if err != nil {
			return nil, fmt.Errorf("bench6: probe batch %d: %w", n, err)
		}
		out.Probe = append(out.Probe, cell)
	}
	cells := Bench6ExecCells
	if rc.Batch > 1 {
		cells = []struct{ Batch, LingerMs int }{{1, 0}, {rc.Batch, rc.BatchLingerMs}}
	}
	for _, c := range cells {
		fmt.Fprintf(progress, "exec sweep: batch %d linger %dms...\n", c.Batch, c.LingerMs)
		cell, err := bench6Exec(rc, c.Batch, c.LingerMs)
		if err != nil {
			return nil, fmt.Errorf("bench6: exec batch %d linger %dms: %w", c.Batch, c.LingerMs, err)
		}
		out.Exec = append(out.Exec, cell)
	}
	return out, nil
}

// WriteJSON renders the report as indented JSON.
func (b *Bench6) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
