package bench

import (
	"fmt"
	"time"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/metrics"
	"pjoin/internal/parallel"
	"pjoin/internal/sim"
	"pjoin/internal/stream"
)

func init() {
	register(Experiment{ID: "scale1", Title: "ShardedPJoin scaling, 1/2/4/8 shards (fig5 workload)", Run: runScale1})
}

// Router and merge stage prices for the pipeline makespan. Routing is a
// single hash plus a hand-off — an order of magnitude cheaper than
// PerTuple, which prices a full engine dispatch + state insert; the
// merge forwards an already-built result.
const (
	perRoute = 10 * stream.Time(1_000) // 10 µs per routed/broadcast item
	perMerge = 5 * stream.Time(1_000)  // 5 µs per merged output item
)

// scaleRow is one shard count's measurement.
type scaleRow struct {
	shards     int
	wall       time.Duration
	wallTput   float64     // tuples/s of wall time
	makespan   stream.Time // cost-model pipeline makespan
	modelTput  float64     // tuples/s of model makespan
	speedup    float64     // single-instance model time / makespan
	skew       float64
	punctsOut  int64
	resultsOut int64
}

// runScale1 measures ShardedPJoin's throughput scaling on the fig5-style
// high-rate symmetric workload at 1, 2, 4 and 8 shards.
//
// Two numbers are reported per shard count. Wall time is the time to
// drive the whole schedule through the operator's direct wiring, which
// calls router, shards and merge one after another on one goroutine, so
// it shows no parallel speedup at all. The cost-model makespan is the
// scaling figure, consistent with the repository's virtual-time
// methodology (internal/sim): each shard's actual recorded work (its
// joinbase.Metrics after the run — probes, purge scans, purge runs,
// punctuations) is priced with sim.DefaultCosts, the router and
// merge stages are priced per item, and the pipeline makespan is the
// slowest stage: max(router, slowest shard, merge). Data-tuple work
// divides across shards; broadcast punctuation handling and per-shard
// purge runs do not — which is exactly the Amdahl term that caps the
// measured speedup as shards grow.
func runScale1(rc RunConfig) (*Report, error) {
	arrs, _, err := symmetricWorkload(rc, defShort, 40)
	if err != nil {
		return nil, err
	}
	var tuples int64
	for _, a := range arrs {
		if a.Item.Kind == stream.KindTuple {
			tuples++
		}
	}
	costs := sim.DefaultCosts()
	arrs = rc.admitted(arrs)

	var rows []scaleRow
	for _, n := range rc.shardCounts() {
		cfg := core.Config{
			SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
			AttrA: gen.KeyAttr, AttrB: gen.KeyAttr,
		}
		cfg.Thresholds.Purge = 1
		cfg.Thresholds.PropagateCount = 1
		j, err := parallel.New(parallel.Config{Shards: n, Join: cfg, Instr: rc.instr(fmt.Sprintf("sharded-%d", n))}, &nullEmitter{})
		if err != nil {
			return nil, err
		}

		start := time.Now()
		var last stream.Time
		for i, a := range arrs {
			if err := j.Process(a.Port, a.Item, a.Item.Ts); err != nil {
				return nil, fmt.Errorf("scale1: shards=%d arrival %d: %w", n, i, err)
			}
			last = a.Item.Ts
		}
		for port := 0; port < 2; port++ {
			last++
			if err := j.Process(port, stream.EOSItem(last), last); err != nil {
				return nil, fmt.Errorf("scale1: shards=%d EOS: %w", n, err)
			}
		}
		if err := j.Finish(last + 1); err != nil {
			return nil, fmt.Errorf("scale1: shards=%d Finish: %w", n, err)
		}
		wall := time.Since(start)

		stats := j.ShardStats()
		var maxShard stream.Time
		var routed int64
		for _, s := range stats {
			if c := costs.Charge(s.Join); c > maxShard {
				maxShard = c
			}
			routed += s.Routed
		}
		m := j.Metrics()
		// The router handles every data tuple once and every punctuation
		// n times (broadcast); the merge forwards results + punctuations.
		routerWork := perRoute * stream.Time(routed+int64(n)*(m.PunctsIn[0]+m.PunctsIn[1]))
		mergeWork := perMerge * stream.Time(m.TuplesOut+m.PunctsOut)
		makespan := maxShard
		if routerWork > makespan {
			makespan = routerWork
		}
		if mergeWork > makespan {
			makespan = mergeWork
		}
		rows = append(rows, scaleRow{
			shards:     n,
			wall:       wall,
			wallTput:   float64(tuples) / wall.Seconds(),
			makespan:   makespan,
			modelTput:  float64(tuples) / (float64(makespan) / 1e9),
			skew:       parallel.Skew(stats),
			punctsOut:  m.PunctsOut,
			resultsOut: m.TuplesOut,
		})
	}

	base := rows[0]
	rep := &Report{
		ID:    "scale1",
		Title: "ShardedPJoin throughput scaling (fig5 workload: 2 ms/tuple, punct every 40)",
		Paper: "beyond the paper: partition-parallel stream joins scale near-linearly until broadcast work dominates",
		Rows: [][]string{{
			"shards", "wall ms", "wall tuples/s",
			"model makespan ms", "model tuples/s", "model speedup",
			"skew",
		}},
	}
	speedupSeries := metrics.Series{Name: "model-speedup"}
	tputSeries := metrics.Series{Name: "model-tuples-per-s"}
	for i := range rows {
		r := &rows[i]
		r.speedup = float64(base.makespan) / float64(r.makespan)
		rep.Rows = append(rep.Rows, []string{
			i64(int64(r.shards)),
			f1(float64(r.wall.Milliseconds())),
			f1(r.wallTput),
			f1(float64(r.makespan) / 1e6),
			f1(r.modelTput),
			fmt.Sprintf("%.2f", r.speedup),
			fmt.Sprintf("%.2f", r.skew),
		})
		// x = shard count so the CSV rows read (shards, value).
		speedupSeries.Add(float64(r.shards), r.speedup)
		tputSeries.Add(float64(r.shards), r.modelTput)
	}
	rep.Series = []metrics.Series{speedupSeries, tputSeries}
	skewNote := "shard skew (max/mean tuples routed):"
	for _, r := range rows {
		skewNote += fmt.Sprintf(" %d shards → %.2f;", r.shards, r.skew)
	}
	rep.Notes = []string{
		skewNote,
		fmt.Sprintf("results %d, propagated punctuations %d per run (identical across shard counts)",
			base.resultsOut, base.punctsOut),
		"wall time is the direct drive, which runs router, shards and merge one after another on one goroutine; " +
			"the model makespan is the scaling figure (per-shard recorded work priced with sim.DefaultCosts, " +
			"makespan = slowest pipeline stage)",
		"broadcast punctuations and per-shard purge runs are the serial fraction: they repeat in every shard, capping speedup as shards grow",
	}
	return rep, nil
}

// nullEmitter discards output; scale1 measures operator cost, not sink
// cost.
type nullEmitter struct{}

func (nullEmitter) Emit(stream.Item) error { return nil }
