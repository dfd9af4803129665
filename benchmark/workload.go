package main

import (
	"fmt"
	"time"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/punct"
	"pjoin/internal/store"
	"pjoin/internal/stream"
)

// spec is one named workload: what is generated, how the pipeline is
// configured and how it is driven. The names and reasons are repeated in
// BENCHMARK.json; TestNamesMatchManifest keeps the two equal.
type spec struct {
	Name string
	// Loop is "closed" (unpaced sources, back-pressure) or "open"
	// (sources paced on a fixed schedule).
	Loop string
	Why  string

	// Exactly one of Synthetic and Auction is set.
	Synthetic *gen.Config
	Auction   *gen.AuctionConfig

	// Batch and Linger are exec.Pipeline.BatchSize and BatchLinger.
	Batch  int
	Linger time.Duration
	// MemoryBytes, when set, is the join's memory threshold: past it the
	// join relocates state to a byte-accounted simulated disk
	// (store.MemSpill) and joins it back in chunked passes.
	MemoryBytes int64
	// Rate is the offered load of an open-loop workload, in input tuples
	// per second: the generated timestamps are rescaled so the whole
	// input is due at exactly this rate.
	Rate float64
}

// spills reports whether the join runs under a memory threshold.
func (w spec) spills() bool { return w.MemoryBytes > 0 }

// paced reports whether the sources release items on the schedule.
func (w spec) paced() bool { return w.Loop == loopOpen }

const (
	loopClosed = "closed"
	loopOpen   = "open"
)

func side(punctMean float64) gen.SideSpec {
	return gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: punctMean}
}

func synthetic(d time.Duration, punctMean float64, window int) *gen.Config {
	return &gen.Config{
		Duration:   stream.Time(d),
		WindowKeys: window,
		A:          side(punctMean), B: side(punctMean),
	}
}

// workloads is the benchmark's fixed list. Sizes are fixed counts chosen
// so one closed-loop run takes about a second on the 2-core sizing host:
// the acceptance contract caps a whole invocation (set-up, warm-up and
// at least five timed rounds) well under a minute, so the durations are
// the issue's shapes at 1/4 to 1/6 length, never fewer workloads or
// rounds.
var workloads = []spec{
	{
		Name: "fanout_sat", Loop: loopClosed,
		Why:       "closed loop, batch 256: 26 results per input, so result construction, Emit, edges and driver do the work and punctuations about 6%",
		Synthetic: synthetic(80*time.Second, 50, 0),
		Batch:     256, Linger: time.Millisecond,
	},
	{
		Name: "fanout_item_sat", Loop: loopClosed,
		Why:       "closed loop, per-item edges (the exec default): same layers with one channel operation and one wakeup per item; the row a driver rewrite must not regress",
		Synthetic: synthetic(30*time.Second, 50, 0),
		Batch:     0, Linger: 0,
	},
	{
		Name: "punct_sat", Loop: loopClosed,
		Why:       "closed loop, a punctuation every 4 tuples over 1024 open keys: purge, index build, propagation and punct.Set are 90% of operator time, results 2 per input",
		Synthetic: synthetic(80*time.Second, 4, 1024),
		Batch:     256, Linger: time.Millisecond,
	},
	{
		Name: "spill_sat", Loop: loopClosed,
		Why:       "closed loop, 200 kB memory threshold over a simulated disk: relocation, chunked disk passes and spill scan/decode, which no other workload touches",
		Synthetic: synthetic(40*time.Second, 40, 512),
		Batch:     256, Linger: time.Millisecond, MemoryBytes: 200_000,
	},
	{
		Name: "auction_open", Loop: loopOpen,
		Why: "open loop at a fixed 40000 tuples/s: the paper's Fig. 1 plan (Open, Bid -> PJoin -> group-by), timing close -> aggregate from each punctuation's due time",
		Auction: &gen.AuctionConfig{
			Items: 3200, OpenMean: 2 * stream.Millisecond,
			AuctionLength: 400 * stream.Millisecond,
			BidMean:       20 * stream.Millisecond, UniqueOpenPunct: true,
		},
		Batch: 256, Linger: time.Millisecond, Rate: 40000,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

// scaled returns the workload at a fraction of its size (the tests run
// every workload at 1/50).
func (w spec) scaled(f float64) spec {
	if f == 1 {
		return w
	}
	w.MemoryBytes = int64(float64(w.MemoryBytes) * f)
	if w.Synthetic != nil {
		c := *w.Synthetic
		c.Duration = stream.Time(float64(c.Duration) * f)
		w.Synthetic = &c
	}
	if w.Auction != nil {
		c := *w.Auction
		c.Items = int(float64(c.Items)*f + 0.5)
		if c.Items < 1 {
			c.Items = 1
		}
		w.Auction = &c
	}
	return w
}

// generate produces the workload's arrivals from seed alone.
func (w spec) generate(seed uint64) ([]gen.Arrival, error) {
	if w.Synthetic != nil {
		c := *w.Synthetic
		c.Seed = seed
		return gen.Synthetic(c)
	}
	c := *w.Auction
	c.Seed = seed
	return gen.Auction(c)
}

// schemas returns the two input schemas and the join attribute (position
// 0 on both sides in both generators).
func (w spec) schemas() (a, b *stream.Schema) {
	if w.Auction != nil {
		return gen.OpenSchema, gen.BidSchema
	}
	return gen.SchemaA, gen.SchemaB
}

// joinSchema is the schema of the join's results.
func (w spec) joinSchema() (*stream.Schema, error) {
	a, b := w.schemas()
	return a.Concat("join", b)
}

// joinConfig is the PJoin configuration every layer of the benchmark
// (live pipeline, direct drive, sharded direct drive) shares: eager
// purge, push propagation after every punctuation, indexed state. The
// spill workload adds the memory threshold and runs without propagation,
// the regime of the paper's experiments.
func (w spec) joinConfig() core.Config {
	a, b := w.schemas()
	cfg := core.Config{SchemaA: a, SchemaB: b, AttrA: gen.KeyAttr, AttrB: gen.KeyAttr}
	cfg.Thresholds.Purge = 1
	cfg.Thresholds.PropagateCount = 1
	if w.spills() {
		cfg.Thresholds.MemoryBytes = w.MemoryBytes
		cfg.Thresholds.DiskJoinIdle = stream.Time(time.Millisecond)
		cfg.DiskChunkBytes = 64 << 10
		cfg.DisablePropagation = true
	}
	return cfg
}

// withSpill gives a join config fresh simulated disks and returns them,
// so their byte counters can be read after the run.
func withSpill(cfg core.Config) (core.Config, [2]*store.MemSpill) {
	sp := [2]*store.MemSpill{store.NewMemSpill(), store.NewMemSpill()}
	cfg.SpillA, cfg.SpillB = sp[0], sp[1]
	return cfg, sp
}

// diskStats adds up the two simulated disks' counters.
func diskStats(disk [2]*store.MemSpill) (store.IOStats, error) {
	var io store.IOStats
	for _, d := range disk {
		st, err := d.Stats()
		if err != nil {
			return io, err
		}
		io.WriteOps += st.WriteOps
		io.ReadOps += st.ReadOps
		io.BytesWritten += st.BytesWritten
		io.BytesRead += st.BytesRead
		io.ChunkReads += st.ChunkReads
	}
	return io, nil
}

// input is a workload's generated, checked and scheduled input: what
// set-up produces and every run of the workload reads.
type input struct {
	spec spec
	seed uint64
	// arrivals is the generator's output in timestamp order; on an
	// open-loop workload the timestamps are the due times (see rescale).
	arrivals []gen.Arrival
	// items is arrivals split by port: what the two sources are given.
	items  [2][]stream.Item
	tuples int64 // input data tuples, the denominator of per-tuple metrics
	puncts int64
	// lastDue is the due time of the final input item (open loop).
	lastDue time.Duration
	ref     reference
	// closeDue[k] is when the Bid punctuation that closes item k is due
	// (open loop; -1 for an item never closed). Latency is taken from it.
	closeDue []time.Duration

	genTime, refTime time.Duration
}

// rescale maps the generator's virtual timestamps onto the paced
// schedule: the same inter-arrival pattern, compressed so the input's
// tuples are due at rate tuples per second. Timestamps stay strictly
// increasing (the generator's contract) after integer rounding.
func rescale(arrs []gen.Arrival, tuples int64, rate float64) {
	if len(arrs) == 0 {
		return
	}
	span := float64(arrs[len(arrs)-1].Item.Ts)
	f := float64(tuples) / rate * 1e9 / span
	var last stream.Time
	for i := range arrs {
		it := &arrs[i].Item
		ts := stream.Time(float64(it.Ts) * f)
		if ts <= last {
			ts = last + 1
		}
		last = ts
		it.Ts = ts
		if it.Kind == stream.KindTuple {
			// The generator owns these tuples and nothing else holds them
			// yet, so restamping in place is safe.
			it.Tuple.Ts = ts
		}
	}
}

// prepare is the workload's set-up: generate, schedule, split by port,
// compute the reference. Its wall time is the setup_s metric.
func prepare(w spec, seed uint64) (*input, error) {
	start := time.Now()
	arrs, err := w.generate(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: generate: %w", w.Name, err)
	}
	if len(arrs) == 0 {
		return nil, fmt.Errorf("%s: generator produced no input", w.Name)
	}
	in := &input{spec: w, seed: seed, arrivals: arrs}
	for _, a := range arrs {
		switch a.Item.Kind {
		case stream.KindTuple:
			in.tuples++
		case stream.KindPunct:
			in.puncts++
		}
	}
	if w.paced() {
		rescale(arrs, in.tuples, w.Rate)
		in.lastDue = time.Duration(arrs[len(arrs)-1].Item.Ts)
		in.closeDue = closeSchedule(arrs)
	}
	for _, a := range arrs {
		in.items[a.Port] = append(in.items[a.Port], a.Item)
	}
	in.genTime = time.Since(start)

	refStart := time.Now()
	in.ref, err = computeReference(w, arrs)
	if err != nil {
		return nil, fmt.Errorf("%s: reference: %w", w.Name, err)
	}
	in.refTime = time.Since(refStart)
	return in, nil
}

// closeSchedule returns, per item_id, the due time of the Bid stream's
// punctuation that closes the auction: the input item that lets the join
// release the item's last result and the group-by its aggregate. Item
// ids are the generator's dense small integers.
func closeSchedule(arrs []gen.Arrival) []time.Duration {
	var due []time.Duration
	for _, a := range arrs {
		if a.Item.Kind != stream.KindPunct || a.Port != gen.AuctionPortBid {
			continue
		}
		pat := a.Item.Punct.PatternAt(gen.KeyAttr)
		if pat.Kind() != punct.Constant {
			continue
		}
		k := pat.ConstVal().IntVal()
		for int64(len(due)) <= k {
			due = append(due, -1)
		}
		due[k] = time.Duration(a.Item.Ts)
	}
	return due
}
