// Command pjoinbench regenerates the paper's tables and figures: it
// runs the reproduction experiments defined in internal/bench and
// prints each figure's series as a summary table plus an ASCII chart,
// optionally exporting the raw series as CSV. Every experiment runs on
// the simulator's virtual clock and its series are gated byte for byte
// (`make figures-check`). What the engine costs on the wall clock is
// measured by benchmark/ and nowhere else.
//
// Usage:
//
//	pjoinbench -list
//	pjoinbench -fig 5            # one figure (accepts "5", "fig5", "table1")
//	pjoinbench -all              # every figure and table
//	pjoinbench -fig 9 -quick     # 1/10th horizon smoke run
//	pjoinbench -fig 7 -csv out.csv
//	pjoinbench -fig 5 -trace fig5.jsonl     # JSONL span trace of the run (read it with pjointrace)
//	pjoinbench -fig ext-latency             # latency quantiles per punct rate and chunk budget
//	pjoinbench -flight-sample flight.jsonl.gz  # fault-injection flight dump
//
// Trace files with a .gz suffix are written gzip-compressed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pjoin/internal/bench"
	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
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
		trace  = flag.String("trace", "", "write the operators' spans, every tuple admitted, as a JSONL trace to this file (.gz compresses); analyze with pjointrace")
		flight = flag.String("flight-sample", "", "run the fault-injection flight-recorder scenario and write the dump to this file (.gz compresses)")

		oracleReplay = flag.String("oracle-replay", "", "replay one minimized oracle spec, e.g. \"seed=42 variant=pjoin/chunk=512 check=puncts prefix=107 drop=3,9\"")
	)
	flag.Parse()

	if *oracleReplay != "" {
		if err := runOracleReplay(*oracleReplay, os.Stdout); err != nil {
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

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	rc := bench.RunConfig{
		Seed:     *seed,
		Quick:    *quick,
		Duration: stream.Time(*durMs) * stream.Millisecond,
	}
	var tracer *span.JSONL
	var traceSink io.WriteCloser
	if *trace != "" {
		var err error
		traceSink, err = obs.CreateSink(*trace) // .gz paths get gzip compression
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tracer = span.NewJSONL(traceSink)
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

	var allSeries []bench.Series
	for _, e := range exps {
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
	}
	if tracer != nil {
		// Flush, then close (a .gz sink writes its trailer there), and only
		// then report: a trace that did not reach the disk whole is an error.
		err := tracer.Flush()
		if cerr := traceSink.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pjoinbench: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d spans to %s\n", tracer.Events(), *trace)
	}

	if *csv != "" {
		err := writeFile(*csv, func(w io.Writer) error { return bench.WriteCSV(w, allSeries...) })
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *csv)
	}
}

// writeFile creates path, lets write fill it and closes it, returning
// the first error of the three: a file is reported written only once it
// is closed (a deferred Close is skipped by os.Exit and loses its error).
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
