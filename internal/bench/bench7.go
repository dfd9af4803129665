package bench

// This file implements the tracing-overhead sweep behind `pjoinbench
// -bench7` (BENCH_7.json). The provenance layer (internal/obs/span)
// promises that observability is effectively free until you ask for it:
// detached tracing (instrumentation compiled in, no tracer attached)
// must cost one predicted branch per call site and zero allocations —
// the AllocsPerRun guards in internal/obs pin that — and attached
// tracing must be cheap enough to leave on in production, bounded by
// the tuple sampler. This sweep is the throughput receipt: the bench6
// live pipeline (two sources → PJoin → sink, batch 256) run detached,
// sampled 1-in-64, and with every tuple traced, all spans encoded to a
// discarded JSONL stream (the encoding work is paid, the disk is not,
// so the number isolates tracing cost from device speed).
//
// The acceptance bar recorded in the note: full tracing ≤ 10% tuples/s
// regression against detached at batch 256; the sampled mode should be
// indistinguishable from detached.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"pjoin/internal/core"
	"pjoin/internal/exec"
	"pjoin/internal/gen"
	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/stream"
)

// Bench7Cell is one tracing mode's pipeline measurement.
type Bench7Cell struct {
	Mode         string  `json:"mode"` // "detached", "sampled_64", "full"
	SampleEvery  int     `json:"sample_every"`
	WallMs       float64 `json:"wall_ms"`
	TuplesIn     int64   `json:"tuples_in"`
	TuplesOut    int64   `json:"tuples_out"`
	PunctsOut    int64   `json:"puncts_out"`
	TuplesPerSec float64 `json:"tuples_per_sec"`
	Spans        int64   `json:"spans"`
	PunctSpans   int64   `json:"punct_spans"`
	TupleSpans   int64   `json:"tuple_spans"`
	SampledIn    int64   `json:"sampled_in"`
	DroppedIn    int64   `json:"dropped_in"`
	OverheadPct  float64 `json:"overhead_pct"` // vs the detached cell

	// kinds holds the per-kind span counts, indexed by span.Kind. Test
	// detail (the reconciliation test needs interleaving-independent
	// kinds like punct_arrive/punct_emit); not part of the JSON report.
	kinds []int64
}

// Bench7 is the full tracing-overhead report.
type Bench7 struct {
	Note  string       `json:"note"`
	Seed  uint64       `json:"seed"`
	Batch int          `json:"batch"`
	Cells []Bench7Cell `json:"cells"`
}

// Bench7Modes is the sweep: detached baseline, the production sampling
// rate, and every tuple traced. SampleEvery 0 means no tracer attached.
var Bench7Modes = []struct {
	Mode        string
	SampleEvery int
}{
	{"detached", 0},
	{"sampled_64", 64},
	{"full", 1},
}

// bench7Once runs one tracing mode over the bench6 live pipeline.
func bench7Once(rc RunConfig, batch int, sampleEvery int) (Bench7Cell, error) {
	arrs, _, err := symmetricWorkload(rc, defShort, 50)
	if err != nil {
		return Bench7Cell{}, err
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
	var spans *span.Tee
	var sampler *span.Sampler
	if sampleEvery > 0 {
		spans = span.NewTee(span.NewJSONL(io.Discard))
		sampler = span.NewSampler(sampleEvery)
		p.Obs = obs.NewInstr(spans, nil, "exec")
		p.SpanSampler = sampler
	}
	srcA, srcB, out := p.Edge(), p.Edge(), p.Edge()
	cfg := core.Config{
		SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
		AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
	}
	cfg.Thresholds.Purge = 1
	cfg.Thresholds.PropagateCount = 1
	if spans != nil {
		cfg.Instr = obs.NewInstr(spans, nil, "pjoin")
	}
	pj, err := core.New(cfg, out)
	if err != nil {
		return Bench7Cell{}, err
	}
	if err := p.Spawn(pj, srcA, srcB); err != nil {
		return Bench7Cell{}, err
	}
	p.Sink(out)
	p.SourceItems(srcA, itemsA, false)
	p.SourceItems(srcB, itemsB, false)
	start := time.Now()
	if err := p.Run(context.Background()); err != nil {
		return Bench7Cell{}, err
	}
	wall := time.Since(start)
	m := pj.Metrics()
	in := m.TuplesIn[0] + m.TuplesIn[1]
	cell := Bench7Cell{
		SampleEvery:  sampleEvery,
		WallMs:       float64(wall.Nanoseconds()) / 1e6,
		TuplesIn:     in,
		TuplesOut:    m.TuplesOut,
		PunctsOut:    m.PunctsOut,
		TuplesPerSec: float64(in) / wall.Seconds(),
	}
	if spans != nil {
		cell.kinds = spans.Counts()
		var pass, point int64
		cell.PunctSpans, pass, cell.TupleSpans, point = span.FamilyCounts(cell.kinds)
		cell.Spans = cell.PunctSpans + pass + cell.TupleSpans + point
		cell.SampledIn = sampler.Sampled()
		cell.DroppedIn = sampler.Dropped()
	}
	return cell, nil
}

// RunBench7 runs the tracing-overhead sweep at batch 256 (or rc.Batch
// when set). progress (optional) receives one line per round.
//
// The sweep is an A/B ratio against the detached cell, so rep order
// matters more than rep count: running each mode's reps back-to-back
// lets the baseline and a traced mode land in different machine-noise
// regimes, and the "overhead" then measures the machine, not the
// tracer. Reps are therefore interleaved round-robin — every round
// runs all three modes in sequence, the fastest rep per mode wins —
// after one unrecorded detached warm-up rep that absorbs first-run
// costs (page faults, heap growth).
func RunBench7(rc RunConfig, progress io.Writer) (*Bench7, error) {
	if progress == nil {
		progress = io.Discard
	}
	batch := 256
	if rc.Batch > 1 {
		batch = rc.Batch
	}
	out := &Bench7{
		Note: "provenance tracing overhead sweep. The bench6 live pipeline (two sources -> " +
			"pjoin -> sink, indexed, eager purge) run detached (no tracer attached; the " +
			"disabled call sites must cost one branch and zero allocations — pinned by the " +
			"AllocsPerRun guards in internal/obs), sampled 1-in-64 (the production rate), and " +
			"full (every tuple traced). Spans are JSONL-encoded to a discarded stream so the " +
			"figure isolates tracing cost from device speed. Punctuation spans are never " +
			"sampled; tuple spans scale with the sampling rate. overhead_pct is the tuples/s " +
			"regression vs detached; the acceptance bar is <= 10% for full tracing at batch " +
			"256 and ~0% sampled. Cells are the fastest of 5 interleaved rounds (all modes " +
			"run once per round); overhead_pct is the median of the per-round paired " +
			"ratios, so machine noise that drifts across rounds cancels instead of " +
			"masquerading as tracer cost.",
		Seed:  rc.seed(),
		Batch: batch,
	}
	reps := 5
	if rc.Quick {
		reps = 1
	}
	if _, err := bench7Once(rc, batch, 0); err != nil { // warm-up, unrecorded
		return nil, fmt.Errorf("bench7: warm-up: %w", err)
	}
	best := make([]Bench7Cell, len(Bench7Modes))
	ratios := make([][]float64, len(Bench7Modes))
	for r := 0; r < reps; r++ {
		fmt.Fprintf(progress, "bench7: round %d/%d...\n", r+1, reps)
		var roundDetached float64
		for i, m := range Bench7Modes {
			cell, err := bench7Once(rc, batch, m.SampleEvery)
			if err != nil {
				return nil, fmt.Errorf("bench7: %s: %w", m.Mode, err)
			}
			if i == 0 {
				roundDetached = cell.TuplesPerSec
			} else if roundDetached > 0 {
				ratios[i] = append(ratios[i], 100*(roundDetached-cell.TuplesPerSec)/roundDetached)
			}
			if r == 0 || cell.WallMs < best[i].WallMs {
				best[i] = cell
			}
		}
	}
	for i, m := range Bench7Modes {
		cell := best[i]
		cell.Mode = m.Mode
		cell.OverheadPct = medianFloat(ratios[i])
		out.Cells = append(out.Cells, cell)
	}
	return out, nil
}

// medianFloat returns the median of vs (0 when empty — the detached
// cell has no ratios).
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// WriteJSON renders the report as indented JSON.
func (b *Bench7) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
