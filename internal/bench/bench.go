// Package bench defines the reproduction experiments: one runnable
// experiment per table and figure of the paper's evaluation (§4), plus
// ablations for the design choices DESIGN.md calls out. Each experiment
// generates its workload with internal/gen, runs the operators under the
// cost-model simulator (internal/sim), and reports the same series the
// paper's chart plots. The package simulates the paper on a virtual
// clock and its outputs are gated byte for byte (`make figures-check`);
// measuring the engine on the wall clock is benchmark/'s job.
package bench

import (
	"fmt"
	"io"
	"sort"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/joinbase"
	"pjoin/internal/metrics"
	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/op"
	"pjoin/internal/sim"
	"pjoin/internal/store"
	"pjoin/internal/stream"
)

// RunConfig controls an experiment run.
type RunConfig struct {
	// Seed selects the workload randomness (default 1).
	Seed uint64
	// Duration overrides the experiment's default virtual horizon.
	Duration stream.Time
	// Quick shortens the run for tests and smoke benches.
	Quick bool
	// Tracer, when set, receives the spans of every operator the
	// experiment builds, and makes the simulated drive admit every tuple
	// into tracing (pjoinbench -trace).
	Tracer span.Tracer
	// Live, when set, samples every operator's live gauges on its tick
	// (pjoinbench -live). Operators register gauges under distinct names,
	// so one sampler serves a whole experiment.
	Live *obs.Live
	// Work, when set, collects each simulated operator's final metrics.
	Work *WorkLog
	// DiskChunkKB, when positive, runs every operator's disk passes as
	// incremental background tasks with this per-step read budget in
	// KiB (core.Config.DiskChunkBytes). 0 runs each pass to completion.
	DiskChunkKB int
}

// WorkRow is one simulated operator run's final work counters.
type WorkRow struct {
	Op string
	M  joinbase.Metrics
}

// WorkLog accumulates the WorkRows of one experiment run in simulate
// order.
type WorkLog struct {
	Rows []WorkRow
}

// instr builds the observability handle for one operator instance; nil
// (free to carry) when the run has neither tracer nor sampler.
func (rc RunConfig) instr(name string) *obs.Instr {
	return obs.NewInstr(rc.Tracer, rc.Live, name)
}

// admitted returns the schedule as the simulated drive feeds it: as is,
// or — when, and only when, a tracer is attached — with every tuple
// admitted into tracing, so the trace holds a tuple_probe per input
// tuple. Copies before stamping, as exec.Pipeline.Source does: the
// generator's tuples are shared across the runs of an experiment.
func (rc RunConfig) admitted(arrs []gen.Arrival) []gen.Arrival {
	if rc.Tracer == nil {
		return arrs
	}
	out := make([]gen.Arrival, len(arrs))
	for i, a := range arrs {
		if a.Item.Kind == stream.KindTuple {
			t := *a.Item.Tuple
			t.Span = span.NewID()
			a.Item = stream.TupleItem(&t)
		}
		out[i] = a
	}
	return out
}

func (rc RunConfig) seed() uint64 {
	if rc.Seed == 0 {
		return 1
	}
	return rc.Seed
}

func (rc RunConfig) horizon(def stream.Time) stream.Time {
	if rc.Duration > 0 {
		return rc.Duration
	}
	if rc.Quick {
		return def / 10
	}
	return def
}

// Report is an experiment's outcome: chart series (what the paper's
// figure plots) plus a summary table.
type Report struct {
	ID     string
	Title  string
	Paper  string // the shape the paper reports
	Series []metrics.Series
	Rows   [][]string
	Notes  []string
}

// Render writes the report (table, chart, notes) to w.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title); err != nil {
		return err
	}
	if r.Paper != "" {
		if _, err := fmt.Fprintf(w, "paper: %s\n\n", r.Paper); err != nil {
			return err
		}
	}
	if len(r.Rows) > 0 {
		if err := metrics.Table(w, r.Rows); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if len(r.Series) > 0 {
		if err := metrics.Chart(w, 72, 16, r.Series...); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Experiment is one reproducible experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(RunConfig) (*Report, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments returns all registered experiments sorted by ID.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q; try one of %v", id, ids())
}

func ids() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.ID)
	}
	return out
}

// --- shared run helpers ---

// pjoinFor builds a PJoin over the synthetic schemas with the given
// purge threshold (1 = eager) and otherwise experiment-default settings.
// name identifies the instance in traces and live-gauge series; it must
// be unique within one experiment run.
func pjoinFor(rc RunConfig, name string, purge int, mutate func(*core.Config)) (*core.PJoin, error) {
	cfg := core.Config{
		SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
		AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
		Instr: rc.instr(name),
	}
	cfg.Thresholds.Purge = purge
	cfg.DisablePropagation = true // most experiments measure join-only behaviour
	cfg.DiskChunkBytes = rc.DiskChunkKB << 10
	if mutate != nil {
		mutate(&cfg)
	}
	return core.New(cfg, &op.Collector{})
}

func xjoinFor(rc RunConfig) (*core.PJoin, error) {
	cfg := core.Config{
		SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
		AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
		Instr:          rc.instr("xjoin"),
		DiskChunkBytes: rc.DiskChunkKB << 10,
	}
	return core.NewXJoin(cfg, &op.Collector{})
}

// tableWalk is a join whose Examined, PurgeScanned and IndexScanned read
// what the paper's hash table would have walked, so the simulator charges
// — and the reports print — that regime's work. The engine is one
// key-grouped state; every figure prices the paper's structure over it:
// each probe walks its bucket, each purge run and index build walks the
// table — the physics the paper's shapes (XJoin's declining rate, the
// purge sweet spot) are made of. core's TestWalkCountersMatchOccupancy
// pins the walk counters against the ones the engine really examines.
type tableWalk struct{ sim.MeteredJoin }

func (w tableWalk) Metrics() joinbase.Metrics { return w.MeteredJoin.Metrics().TableWalk() }

// simulate runs the join over the workload, priced as a table walk, with
// default costs (spills, if any, are charged for their I/O) and a
// sampling rate that yields a readable chart, logging the operator's
// final work counters when the run collects them (rc.Work).
func (rc RunConfig) simulate(j sim.MeteredJoin, arrs []gen.Arrival, horizon stream.Time, spills ...store.SpillStore) (*sim.Result, error) {
	sampleEvery := horizon / 60
	if sampleEvery < stream.Millisecond {
		sampleEvery = stream.Millisecond
	}
	res, err := sim.Run(tableWalk{j}, rc.admitted(arrs), sim.Config{SampleEvery: sampleEvery, Spills: spills})
	if err == nil && rc.Work != nil {
		rc.Work.Rows = append(rc.Work.Rows, WorkRow{Op: j.Name(), M: res.Final})
	}
	return res, err
}

// stateSeries extracts the join-state-size-over-time series (the y axis
// of the paper's memory-overhead figures).
func stateSeries(name string, res *sim.Result) metrics.Series {
	s := metrics.Series{Name: name}
	for _, p := range res.Samples {
		s.Add(float64(p.T)/1e6, float64(p.StateTuples))
	}
	return s
}

// outputSeries extracts the cumulative-output-tuples series (the y axis
// of the paper's output-rate figures).
func outputSeries(name string, res *sim.Result) metrics.Series {
	s := metrics.Series{Name: name}
	for _, p := range res.Samples {
		s.Add(float64(p.T)/1e6, float64(p.TuplesOut))
	}
	return s
}

// punctOutSeries extracts the cumulative propagated-punctuation series
// (Fig. 14's y axis).
func punctOutSeries(name string, res *sim.Result) metrics.Series {
	s := metrics.Series{Name: name}
	for _, p := range res.Samples {
		s.Add(float64(p.T)/1e6, float64(p.PunctsOut))
	}
	return s
}

// symmetricWorkload builds the standard §4 workload: both streams at
// 2 ms mean tuple inter-arrival, punctuations every punctMean tuples.
func symmetricWorkload(rc RunConfig, def stream.Time, punctMean float64) ([]gen.Arrival, stream.Time, error) {
	horizon := rc.horizon(def)
	arrs, err := gen.Synthetic(gen.Config{
		Seed:     rc.seed(),
		Duration: horizon,
		A:        gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: punctMean},
		B:        gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: punctMean},
	})
	return arrs, horizon, err
}

// asymmetricWorkload builds the §4.3 workload: A punctuates every
// punctA tuples with per-key constant punctuations; B punctuates every
// punctB tuples with batched range punctuations, so a slower B rate
// means coarser punctuations (not an unbounded backlog) — see
// gen.SideSpec.Batched.
func asymmetricWorkload(rc RunConfig, def stream.Time, punctA, punctB float64, window int) ([]gen.Arrival, stream.Time, error) {
	horizon := rc.horizon(def)
	arrs, err := gen.Synthetic(gen.Config{
		Seed:       rc.seed(),
		Duration:   horizon,
		WindowKeys: window,
		A:          gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: punctA},
		B:          gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: punctB, Batched: true},
	})
	return arrs, horizon, err
}

// simJoin is the operator contract the experiment helpers drive.
type simJoin = sim.MeteredJoin

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func i64(v int64) string  { return fmt.Sprintf("%d", v) }
