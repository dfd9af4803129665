package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pjoin/internal/core"
	"pjoin/internal/exec"
	"pjoin/internal/joinbase"
	"pjoin/internal/op"
	"pjoin/internal/store"
)

// lateLimit is the open-loop latency limit: exec.late_share is the share
// of items whose aggregate reached the sink later than this after the
// closing punctuation was due. Lateness is reported, not counted as a
// failed operation: on the shared sizing host a run now and then stalls
// for longer than the limit with nothing wrong in the program.
const lateLimit = 50 * time.Millisecond

// liveOpts selects the variant of a live run.
type liveOpts struct {
	// checksum makes the sink fold every tuple into the multiset
	// checksum compared with the reference (two hashes per result
	// column, so only untimed rounds ask for it).
	checksum bool
	// tr, when set, installs the taps.
	tr *tracer
}

// run is one execution of a workload's live pipeline: the raw readings
// every end-to-end value is a median of, kept individually in the JSON
// so a reader can tell a slow machine from a slow commit.
type run struct {
	Round   int     `json:"round"`
	Tuples  int64   `json:"input_tuples"`
	CalibMs float64 `json:"calib_ms"`
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	Allocs  uint64  `json:"allocs"`
	Bytes   uint64  `json:"alloc_bytes"`
	// Failed counts missing and extra results, EOS faults and, open loop,
	// items whose aggregate never came.
	Failed int64 `json:"failed"`
	Noisy  bool  `json:"noisy,omitempty"`

	latency []time.Duration
	// drain is how long after the last item was due a paced run ended: a
	// generator that fell behind for good shows here.
	drain  time.Duration
	m      joinbase.Metrics
	io     store.IOStats
	faults []string
}

// pipeline is a built, not yet started, live pipeline.
type pipeline struct {
	p    *exec.Pipeline
	join *core.PJoin
	snk  *sink
	disk [2]*store.MemSpill
}

// build assembles the workload's plan on a fresh exec.Pipeline through
// the engine's public functions only: two sources -> core.PJoin ->
// (group-by on the auction plan) -> counting sink.
func build(in *input, o liveOpts) (*pipeline, error) {
	w := in.spec
	p := exec.NewPipeline()
	p.BatchSize = w.Batch
	p.BatchLinger = w.Linger
	srcA, srcB, joined := p.Edge(), p.Edge(), p.Edge()
	pl := &pipeline{p: p}

	cfg, disk := withSpill(w.joinConfig())
	pl.disk = disk
	jout, jtap := o.tr.emitter("core", "pjoin", joined)
	var err error
	if pl.join, err = core.New(cfg, jout); err != nil {
		return nil, err
	}
	if jtap != nil && w.paced() {
		jtap.tap.sched = &in.items
		jtap.tap.lag = make([]time.Duration, 0, len(in.arrivals))
	}
	if err := p.Spawn(o.tr.wrap(pl.join, jtap), srcA, srcB); err != nil {
		return nil, err
	}
	last := joined
	if w.Auction != nil {
		grouped := p.Edge()
		sc := pl.join.OutSchema()
		gout, gtap := o.tr.emitter("op", "groupby", grouped)
		gb, err := op.NewGroupBy(sc, 0, sc.MustIndexOf("bid_increase"), op.AggSum, gout)
		if err != nil {
			return nil, err
		}
		if err := p.Spawn(o.tr.wrap(gb, gtap), joined); err != nil {
			return nil, err
		}
		last = grouped
	}
	// The sink is the benchmark's own code, not an engine layer, and on
	// per-item edges it is called once per result: it is never tapped.
	pl.snk = &sink{out: discard, checksum: o.checksum}
	if w.paced() {
		pl.snk.lat = newLatencyProbe(in)
	}
	if err := p.Spawn(pl.snk, last); err != nil {
		return nil, err
	}
	p.SourceItems(srcA, in.items[0], w.paced())
	p.SourceItems(srcB, in.items[1], w.paced())
	return pl, nil
}

// runLive builds and runs the workload's pipeline once and checks what
// reached the sink against the reference.
func runLive(in *input, round int, o liveOpts) (*run, error) {
	pl, err := build(in, o)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", in.spec.Name, err)
	}
	return runBuilt(in, pl, round, o)
}

// runBuilt runs a pipeline build returned and takes the readings.
func runBuilt(in *input, pl *pipeline, round int, o liveOpts) (*run, error) {
	r := &run{Round: round, Tuples: in.tuples}
	runtime.GC()
	r.CalibMs = ms(calibrate())
	before := readUsage()
	if pl.snk.lat != nil {
		pl.snk.lat.start = before.wall
	}
	if o.tr != nil {
		o.tr.start = before.wall
	}
	if err := pl.p.Run(context.Background()); err != nil {
		return nil, fmt.Errorf("%s: run: %w", in.spec.Name, err)
	}
	after := readUsage()
	wall := after.wall.Sub(before.wall)
	r.WallS = wall.Seconds()
	r.CPUS = (after.cpu - before.cpu).Seconds()
	r.Allocs = after.allocs - before.allocs
	r.Bytes = after.bytes - before.bytes
	r.m = pl.join.Metrics()
	var err error
	if r.io, err = diskStats(pl.disk); err != nil {
		return nil, err
	}
	if in.spec.paced() {
		r.latency = pl.snk.lat.samples
		r.drain = wall - in.lastDue
	}
	check(in, pl.snk, r, o)
	return r, nil
}

// check is the correctness gate of every run: result count, EOS exactly
// once, the checksum when it was taken, the spill counters (zero unless
// the workload spills, non-zero when it does), and open loop a latency
// sample for every item that closed.
func check(in *input, s *sink, r *run, o liveOpts) {
	fault := func(n int64, format string, args ...any) {
		if n <= 0 {
			return
		}
		r.Failed += n
		r.faults = append(r.faults, fmt.Sprintf(format, args...))
	}
	abs := func(x int64) int64 {
		if x < 0 {
			return -x
		}
		return x
	}
	ref := in.ref
	fault(abs(s.tuples-ref.sinkTuples), "sink saw %d tuples, reference has %d", s.tuples, ref.sinkTuples)
	fault(abs(r.m.TuplesOut-ref.joinResults), "join emitted %d results, reference has %d", r.m.TuplesOut, ref.joinResults)
	if s.eos != 1 || !s.finished {
		fault(1, "sink saw %d EOS, finished=%v", s.eos, s.finished)
	}
	if o.checksum && s.sum != ref.sinkSum {
		fault(1, "result checksum %016x, reference %016x", s.sum, ref.sinkSum)
	}
	spilled := r.m.Relocations + r.m.SpilledTuples + r.m.DiskPasses + r.io.BytesWritten + r.io.BytesRead
	if in.spec.spills() {
		if r.m.SpilledTuples == 0 || r.m.DiskJoins == 0 || r.io.BytesRead == 0 {
			fault(1, "spill workload did not spill: %d tuples spilled, %d disk joins, %d bytes read",
				r.m.SpilledTuples, r.m.DiskJoins, r.io.BytesRead)
		}
	} else {
		fault(spilled, "memory-only workload touched the spill path (%d)", spilled)
	}
	if !in.spec.paced() {
		return
	}
	// One aggregate row, hence one sample, per item that joined at all.
	fault(abs(ref.sinkTuples-int64(len(r.latency))), "%d latency samples, %d items closed", len(r.latency), ref.sinkTuples)
}

// attempted is the denominator of failed_share: the results the sink
// must see plus, open loop, the items that must report a latency.
func attempted(in *input) int64 {
	n := in.ref.sinkTuples
	if in.spec.paced() {
		n *= 2
	}
	if n < 1 {
		n = 1
	}
	return n
}
