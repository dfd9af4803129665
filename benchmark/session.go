package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// Session shape. One warm-up round, then timed rounds interleaved across
// the selected workloads (round r runs every workload once, then round
// r+1), so a slow spell of the host lands on every workload instead of
// all of one. An end-to-end value is the median over timed rounds.
const (
	// minRounds is the fewest timed rounds a value may be the median of.
	minRounds = 5
	// inputsPerRun is how many inputs a session generates per workload,
	// from seeds derived from -seed; timed round r runs on input r mod
	// inputsPerRun. Per-tuple costs follow the realised fan-out of an
	// input (25 to 30 results per input tuple across seeds on the fan-out
	// workloads), so a median over rounds on one input would mostly
	// report which input it drew. Every input is set up from scratch, so
	// setup_s is a median over inputsPerRun set-ups. A traced session
	// uses one input for everything, so that the live cost, the direct
	// drive's cost and the traced round describe the same work and the
	// layer budget adds up.
	inputsPerRun = 8
	// tracedRounds is how many traced rounds a traced session runs.
	tracedRounds = 3
	// noisyCalib flags a round whose calibration reading is this far off
	// the session median: the host, not the code, was slow.
	noisyCalib = 0.15
)

// options is what the command line selects.
type options struct {
	workloads []spec
	seed      uint64
	rounds    int           // at least this many timed rounds
	measure   time.Duration // keep adding rounds until each workload has run this long
	inputs    int           // inputs generated per workload
	trace     bool
	traceDir  string
	// scale shrinks every workload and drill (1 on the command line; the
	// tests run at 1/50).
	scale float64
}

// report is the whole session: what -json writes and -compare reads.
type report struct {
	Seed      uint64            `json:"seed"`
	GoVersion string            `json:"go_version"`
	CPUs      int               `json:"cpus"`
	CalibMs   float64           `json:"calib_ms_median"`
	Workloads []*workloadReport `json:"workloads"`
}

// workloadReport is one workload's metrics with the individual runs
// behind the medians.
type workloadReport struct {
	Name string `json:"name"`
	Loop string `json:"loop"`
	// Tuples, Puncts and Results describe the first input; the others
	// differ by a few percent.
	Tuples  int64 `json:"input_tuples"`
	Puncts  int64 `json:"input_puncts"`
	Results int64 `json:"reference_results"`
	// Live holds the distribution over timed rounds (set-ups for
	// setup_s) of every end-to-end and liveTimed metric.
	Live      map[string]dist    `json:"live"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Faults    []string           `json:"faults,omitempty"`
	SetupS    []float64          `json:"setup_s_runs"`
	Runs      []*run             `json:"runs"`
	TraceFile string             `json:"trace_file,omitempty"`

	// ins are the session's inputs for this workload. The warm-up, the
	// traced round, the direct drives and the drills use the first.
	ins     []*input
	elapsed time.Duration
	latency []time.Duration // pooled over timed rounds
}

// record charges a checked run to the workload's failure count.
func (wr *workloadReport) record(in *input, r *run) {
	wr.Attempted += attempted(in)
	wr.Failed += r.Failed
	for _, f := range r.faults {
		wr.Faults = append(wr.Faults, fmt.Sprintf("round %d: %s", r.Round, f))
	}
}

func runSession(o options) (*report, error) {
	rep := &report{Seed: o.seed, GoVersion: runtime.Version(), CPUs: runtime.NumCPU()}
	for _, w := range o.workloads {
		wr, err := setUp(w.scaled(o.scale), o.seed, o.inputs)
		if err != nil {
			return nil, err
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	// Warm-up: not timed, so it is the round that pays for the result
	// checksum; timed and traced rounds check counts and EOS only.
	for _, wr := range rep.Workloads {
		r, err := runLive(wr.ins[0], 0, liveOpts{checksum: true})
		if err != nil {
			return nil, err
		}
		wr.record(wr.ins[0], r)
	}
	for round, active := 1, len(rep.Workloads); active > 0; round++ {
		active = 0
		for _, wr := range rep.Workloads {
			if len(wr.Runs) >= o.rounds && wr.elapsed >= o.measure {
				continue
			}
			in := wr.ins[round%len(wr.ins)]
			start := time.Now()
			r, err := runLive(in, round, liveOpts{})
			if err != nil {
				return nil, err
			}
			wr.elapsed += time.Since(start)
			wr.record(in, r)
			wr.Runs = append(wr.Runs, r)
			wr.latency = append(wr.latency, r.latency...)
			active++
		}
	}
	var calibs []float64
	for _, wr := range rep.Workloads {
		for _, r := range wr.Runs {
			calibs = append(calibs, r.CalibMs)
		}
	}
	rep.CalibMs = median(calibs)
	for _, wr := range rep.Workloads {
		for _, r := range wr.Runs {
			r.Noisy = math.Abs(r.CalibMs-rep.CalibMs) > noisyCalib*rep.CalibMs
		}
		wr.Live = liveOf(wr)
	}
	if o.trace {
		for _, wr := range rep.Workloads {
			if err := traceWorkload(wr, o, rep.CalibMs); err != nil {
				return nil, err
			}
		}
	}
	return rep, nil
}

// setUp prepares the workload's inputs. One set-up is everything before
// an input's first run: generation, schedule, reference, and building
// the first pipeline.
func setUp(w spec, seed uint64, inputs int) (*workloadReport, error) {
	wr := &workloadReport{Name: w.Name, Loop: w.Loop}
	for i := 0; i < inputs; i++ {
		runtime.GC()
		start := time.Now()
		// Derived seeds of different -seed values never collide.
		in, err := prepare(w, seed*inputsPerRun+uint64(i))
		if err != nil {
			return nil, err
		}
		if _, err := build(in, liveOpts{}); err != nil {
			return nil, fmt.Errorf("%s: build: %w", w.Name, err)
		}
		wr.SetupS = append(wr.SetupS, time.Since(start).Seconds())
		wr.ins = append(wr.ins, in)
	}
	first := wr.ins[0]
	wr.Tuples, wr.Puncts, wr.Results = first.tuples, first.puncts, first.ref.joinResults
	return wr, nil
}

// series returns, per end-to-end and liveTimed metric, the workload's
// individual readings: one per timed round, in round order (one per
// set-up for setup_s). Sessions of the same seed run the same input in
// the same round, which is what lets -compare pair them.
func series(wr *workloadReport) map[string][]float64 {
	var tput, cpu, allocs, bytes []float64
	for _, r := range wr.Runs {
		n := float64(r.Tuples)
		tput = append(tput, n/r.WallS)
		cpu = append(cpu, r.CPUS*1e6/n)
		allocs = append(allocs, float64(r.Allocs)/n)
		bytes = append(bytes, float64(r.Bytes)/n)
	}
	return map[string][]float64{
		"setup_s":                      wr.SetupS,
		"allocs_per_tuple":             allocs,
		"alloc_bytes_per_tuple":        bytes,
		"live.throughput_tuples_per_s": tput,
		"live.cpu_us_per_tuple":        cpu,
	}
}

// liveOf summarises every series.
func liveOf(wr *workloadReport) map[string]dist {
	out := make(map[string]dist)
	for name, vs := range series(wr) {
		out[name] = summarize(vs)
	}
	return out
}

// durQuantile reads the p-quantile of ds in milliseconds.
func durQuantile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = ms(d)
	}
	sort.Float64s(s)
	return quantile(s, p)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceWorkload produces the workload's per-layer metrics from the three
// sources: one traced live round, the direct drives, and the drills.
func traceWorkload(wr *workloadReport, o options, sessionCalib float64) error {
	in := wr.ins[0]
	n := float64(in.tuples)
	pl := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		pl[m.Name] = 0
	}
	wr.PerLayer = pl

	// (a) traced rounds: taps on every operator. One round's CPU reading
	// moves by a quarter on a noisy host, so the overhead of tracing is
	// taken from the median of tracedRounds; the spans and the tap totals
	// are the last round's.
	var tr *tracer
	var r *run
	var tracedCPU []float64
	for i := 1; i <= tracedRounds; i++ {
		tr = &tracer{workload: in.spec.Name, round: len(wr.Runs) + i}
		var err error
		if r, err = runLive(in, tr.round, liveOpts{tr: tr}); err != nil {
			return err
		}
		wr.record(in, r)
		tracedCPU = append(tracedCPU, r.CPUS*1e6/n)
	}
	wall := time.Duration(r.WallS * float64(time.Second))
	var err error
	if wr.TraceFile, err = tr.write(o.traceDir, wall); err != nil {
		return fmt.Errorf("%s: write trace: %w", in.spec.Name, err)
	}
	join := tr.find("core")
	results := float64(in.ref.joinResults)
	pl["exec.emit_ns_per_result"] = ratio(float64(join.emitNs()), results)
	pl["exec.emit_share"] = ratio(float64(join.emitNs()), float64(wall))
	pl["exec.batches_in"] = float64(join.calls)
	pl["exec.batch_fill_mean"] = ratio(float64(join.items), float64(join.calls))
	pl["core.busy_share"] = ratio(float64(join.busyNs), float64(wall))
	pl["core.self_us_per_tuple"] = float64(join.busyNs-join.emitNs()) / 1e3 / n
	if gb := tr.find("op"); gb != nil {
		pl["op.groupby_busy_share"] = ratio(float64(gb.busyNs), float64(wall))
	}
	if in.spec.paced() {
		pl["exec.src_lag_p50_ms"] = durQuantile(join.lag, 0.50)
		pl["exec.src_lag_p99_ms"] = durQuantile(join.lag, 0.99)
		pl["exec.drain_ms"] = ms(medianDrain(wr.Runs))
		pl["exec.latency_p50_ms"] = durQuantile(wr.latency, 0.50)
		pl["exec.latency_p90_ms"] = durQuantile(wr.latency, 0.90)
		pl["exec.latency_p99_ms"] = durQuantile(wr.latency, 0.99)
		pl["exec.latency_max_ms"] = durQuantile(wr.latency, 1)
		pl["exec.latency_samples"] = float64(len(wr.latency))
		late := 0
		for _, l := range wr.latency {
			if l > lateLimit {
				late++
			}
		}
		pl["exec.late_share"] = ratio(float64(late), float64(len(wr.latency)))
	}
	for _, m := range liveTimed {
		pl[m.Name] = wr.Live[m.Name].Median
	}
	liveCPU := wr.Live["live.cpu_us_per_tuple"].Median
	pl["benchmark.trace_overhead_pct"] = 100 * ratio(median(tracedCPU)-liveCPU, liveCPU)

	// (b) direct drives.
	d, err := driveDirect(in, in.spec.Auction != nil)
	if err != nil {
		return fmt.Errorf("%s: %w", in.spec.Name, err)
	}
	directCPU := float64(d.cpu.Nanoseconds()) / 1e3 / n
	pl["core.direct_us_per_tuple"] = directCPU
	pl["core.direct_allocs_per_tuple"] = float64(d.allocs) / n
	pl["exec.overhead_us_per_tuple"] = liveCPU - directCPU
	pl["exec.overhead_allocs_per_tuple"] = wr.Live["allocs_per_tuple"].Median - float64(d.allocs)/n
	pl["core.tuple_us_per_tuple"] = float64(d.tupleNs) / 1e3 / n
	pl["core.punct_us_per_punct"] = ratio(float64(d.punctNs)/1e3, float64(in.puncts))
	pl["core.peak_state_tuples"] = float64(d.peakState)
	pl["core.results"] = float64(d.m.TuplesOut)
	pl["core.examined"] = float64(d.m.Examined)
	pl["core.purged"] = float64(d.m.Purged)
	pl["core.purge_scanned"] = float64(d.m.PurgeScanned)
	pl["core.purge_yield"] = ratio(float64(d.m.Purged), float64(d.m.PurgeScanned))
	pl["core.dropped_on_fly"] = float64(d.m.DroppedOnFly)
	pl["core.index_scanned"] = float64(d.m.IndexScanned)
	pl["core.index_scan_per_punct"] = ratio(float64(d.m.IndexScanned), float64(in.puncts))
	pl["core.puncts_out"] = float64(d.m.PunctsOut)
	pl["joinbase.disk_passes"] = float64(d.m.DiskPasses)
	pl["joinbase.disk_chunks"] = float64(d.m.DiskChunks)
	pl["joinbase.disk_examined"] = float64(d.m.DiskExamined)
	pl["joinbase.disk_joins"] = float64(d.m.DiskJoins)
	pl["joinbase.disk_join_share"] = ratio(float64(d.m.DiskJoins), float64(d.m.TuplesOut))
	pl["store.relocations"] = float64(d.m.Relocations)
	pl["store.spilled_tuples"] = float64(d.m.SpilledTuples)
	pl["store.bytes_written"] = float64(d.io.BytesWritten)
	pl["store.bytes_read"] = float64(d.io.BytesRead)
	pl["store.read_ops"] = float64(d.io.ReadOps)
	if in.spec.Auction != nil {
		sc, err := in.spec.joinSchema()
		if err != nil {
			return err
		}
		if pl["op.groupby_us_per_tuple"], pl["op.early_emitted_share"], err = driveGroupBy(in, d.results, sc); err != nil {
			return fmt.Errorf("%s: %w", in.spec.Name, err)
		}
	}
	if pl["parallel.direct_us_per_tuple_s2"], err = driveSharded(in, 2); err != nil {
		return fmt.Errorf("%s: %w", in.spec.Name, err)
	}

	// (c) drills.
	if err := (drills{o.scale}).run(in, d, pl); err != nil {
		return fmt.Errorf("%s: drills: %w", in.spec.Name, err)
	}

	if in.spec.Auction != nil {
		pl["gen.auction_s"] = in.genTime.Seconds()
	} else {
		pl["gen.synthetic_s"] = in.genTime.Seconds()
	}
	pl["benchmark.reference_s"] = in.refTime.Seconds()
	pl["benchmark.calib_ms"] = sessionCalib
	pl["benchmark.failed_share"] = ratio(float64(wr.Failed), float64(wr.Attempted))
	return nil
}

func medianDrain(runs []*run) time.Duration {
	ds := make([]float64, len(runs))
	for i, r := range runs {
		ds[i] = float64(r.drain)
	}
	return time.Duration(median(ds))
}
