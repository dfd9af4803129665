// Command pjoinbench regenerates the paper's tables and figures: it
// runs the reproduction experiments defined in internal/bench and
// prints each figure's series as a summary table plus an ASCII chart,
// optionally exporting the raw series as CSV.
//
// Usage:
//
//	pjoinbench -list
//	pjoinbench -fig 5            # one figure (accepts "5", "fig5", "table1")
//	pjoinbench -all              # every figure and table
//	pjoinbench -fig 9 -quick     # 1/10th horizon smoke run
//	pjoinbench -fig 7 -csv out.csv
//	pjoinbench -fig scale1 -shards 1,4,16   # ShardedPJoin scaling sweep
//	pjoinbench -fig 5 -trace fig5.jsonl     # JSONL event trace of the run
//	pjoinbench -fig 5 -live 10 -csv out.csv # sample live gauges every 10ms
//	pjoinbench -bench3 BENCH_3.json         # perf summary: index micro-benches
//	                                        # + per-experiment work counters
//	pjoinbench -bench4 BENCH_4.json         # latency summary: result-latency and
//	                                        # punct-delay quantiles per punct rate
//	pjoinbench -bench5 BENCH_5.json         # incremental disk-join sweep: latency
//	                                        # quantiles per chunk budget + cache hit ratio
//	pjoinbench -bench6 BENCH_6.json         # batched dataflow sweep: memoized-probe
//	                                        # micro + pipeline throughput per batch x linger
//	pjoinbench -bench6 b6.json -batch 256 -batch-linger-ms 1  # one cell vs batch size 1
//	pjoinbench -bench7 BENCH_7.json         # provenance-tracing overhead sweep:
//	                                        # detached / sampled 1-in-64 / full
//	pjoinbench -fig 9 -disk-chunk-kb 64     # run any figure with incremental passes
//	pjoinbench -fig 9 -spill-cache-mb 4     # ... and/or a spill block cache
//	pjoinbench -flight-sample flight.jsonl.gz  # fault-injection flight dump
//
// Trace files with a .gz suffix are written gzip-compressed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pjoin/internal/bench"
	"pjoin/internal/metrics"
	"pjoin/internal/obs"
	"pjoin/internal/stream"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list available experiments")
		fig    = flag.String("fig", "", "experiment to run (e.g. 5, fig5, table1)")
		all    = flag.Bool("all", false, "run every experiment")
		quick  = flag.Bool("quick", false, "shortened horizon (1/10th)")
		seed   = flag.Uint64("seed", 1, "workload seed")
		durMs  = flag.Int64("duration-ms", 0, "override virtual horizon in milliseconds")
		csv    = flag.String("csv", "", "write the raw series to this CSV file")
		shards = flag.String("shards", "", "comma-separated shard counts for the scaling experiments (e.g. 1,2,4,8)")
		trace  = flag.String("trace", "", "write a JSONL operator event trace to this file")
		liveMs = flag.Int64("live", 0, "sample live operator gauges every N virtual milliseconds (series go to -csv)")
		bench3 = flag.String("bench3", "", "write the performance summary JSON (index micro-benchmarks + per-experiment work counters) to this file")
		bench4 = flag.String("bench4", "", "write the latency summary JSON (result-latency + punct-delay quantiles per punctuation rate) to this file")
		bench5 = flag.String("bench5", "", "write the incremental disk-join sweep JSON (result-latency quantiles per chunk budget + spill-cache hit ratio) to this file")
		bench6 = flag.String("bench6", "", "write the batched-dataflow sweep JSON (memoized-probe micro + live-pipeline throughput and punct delay per batch x linger) to this file")
		bench7 = flag.String("bench7", "", "write the provenance-tracing overhead sweep JSON (detached / sampled 1-in-64 / full, tuples/s regression vs detached) to this file")
		flight = flag.String("flight-sample", "", "run the fault-injection flight-recorder scenario and write the dump to this file (.gz compresses)")

		chunkKB  = flag.Int("disk-chunk-kb", 0, "run disk passes incrementally with this per-step read budget in KiB (0 = run each pass to completion)")
		cacheMB  = flag.Int("spill-cache-mb", 0, "wrap spill stores in an LRU block cache of this many MiB (0 = no cache)")
		batchN   = flag.Int("batch", 0, "exec batch size for the live-pipeline measurements (<=1 = batches of one; with -bench6, > 1 restricts the sweep to this cell)")
		lingerMs = flag.Int("batch-linger-ms", 0, "bound on how long a tuple may wait in an edge batch buffer (0 = flush every emit)")

		oracleN      = flag.Int("oracle", 0, "differential oracle soak: check this many seeds (starting at -seed) across the full config matrix")
		oracleOut    = flag.String("oracle-out", "", "oracle: write minimized replay specs of failing seeds to this file (CI failure artifact)")
		oracleReplay = flag.String("oracle-replay", "", "replay one minimized oracle spec, e.g. \"seed=42 variant=pjoin/shards=2 check=puncts prefix=107 drop=3,9\"")
	)
	flag.Parse()

	if *oracleReplay != "" {
		if err := runOracleReplay(*oracleReplay, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pjoinbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *oracleN > 0 {
		if err := runOracle(*oracleN, *seed, *oracleOut, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pjoinbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *flight != "" {
		out, err := bench.RunFlight(*flight)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pjoinbench: flight: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("flight dump: %s fired at %v (wedged at %v, %d events, %d punctuations propagated before the fault)\nwrote %s\n",
			out.Report.Reason, out.Report.At, out.WedgedAt, out.RingEvents, out.PunctsOut, *flight)
		return
	}

	if *bench4 != "" {
		rep, err := bench.RunBench4(*seed, *quick, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pjoinbench: bench4: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*bench4)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "pjoinbench: bench4: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *bench4)
		return
	}

	if *bench5 != "" {
		rep, err := bench.RunBench5(*seed, *quick, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pjoinbench: bench5: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*bench5)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "pjoinbench: bench5: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *bench5)
		return
	}

	if *bench6 != "" {
		rep, err := bench.RunBench6(bench.RunConfig{
			Seed: *seed, Quick: *quick, Batch: *batchN, BatchLingerMs: *lingerMs,
		}, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pjoinbench: bench6: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*bench6)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "pjoinbench: bench6: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *bench6)
		return
	}

	if *bench7 != "" {
		rep, err := bench.RunBench7(bench.RunConfig{
			Seed: *seed, Quick: *quick, Batch: *batchN,
		}, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pjoinbench: bench7: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*bench7)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "pjoinbench: bench7: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *bench7)
		return
	}

	if *bench3 != "" {
		rep, err := bench.RunBench3(*seed, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pjoinbench: bench3: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*bench3)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := rep.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "pjoinbench: bench3: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *bench3)
		return
	}

	shardCounts, err := parseShards(*shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	rc := bench.RunConfig{
		Seed:          *seed,
		Quick:         *quick,
		Duration:      stream.Time(*durMs) * stream.Millisecond,
		Shards:        shardCounts,
		DiskChunkKB:   *chunkKB,
		SpillCacheMB:  *cacheMB,
		Batch:         *batchN,
		BatchLingerMs: *lingerMs,
	}
	var tracer *obs.JSONL
	if *trace != "" {
		f, err := obs.CreateSink(*trace) // .gz paths get gzip compression
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		tracer = obs.NewJSONL(f)
		rc.Tracer = tracer
	}

	var exps []bench.Experiment
	switch {
	case *all:
		exps = bench.Experiments()
	case *fig != "":
		e, err := bench.Get(*fig)
		if err != nil {
			// Bare numbers are a convenience for "figN".
			var err2 error
			if e, err2 = bench.Get("fig" + *fig); err2 != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		exps = []bench.Experiment{e}
	default:
		fmt.Fprintln(os.Stderr, "pjoinbench: pass -list, -all or -fig N (see -help)")
		os.Exit(2)
	}

	var allSeries []metrics.Series
	for _, e := range exps {
		// A fresh sampler per experiment keeps gauge series from
		// different experiments (which reuse operator names) apart.
		if *liveMs > 0 {
			rc.Live = obs.NewLive(stream.Time(*liveMs) * stream.Millisecond)
		}
		start := time.Now()
		rep, err := e.Run(rc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pjoinbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if err := rep.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("(%s wall time: %.2fs)\n\n", e.ID, time.Since(start).Seconds())
		for _, s := range rep.Series {
			s.Name = rep.ID + "/" + s.Name
			allSeries = append(allSeries, s)
		}
		if rc.Live != nil {
			for _, s := range rc.Live.Series() {
				s.Name = rep.ID + "/live/" + s.Name
				allSeries = append(allSeries, s)
			}
		}
	}
	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "pjoinbench: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d events to %s\n", tracer.Events(), *trace)
	}

	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := metrics.WriteCSV(f, allSeries...); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *csv)
	}
}

// parseShards turns "1,2,4,8" into shard counts; empty input keeps the
// experiments' defaults.
func parseShards(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("pjoinbench: bad -shards value %q (want positive integers, e.g. 1,2,4,8)", part)
		}
		out = append(out, n)
	}
	return out, nil
}
