// Command benchmark is the repository's performance benchmark: it drives
// the unmodified engine through its public functions on five named
// workloads and prints every end-to-end and per-layer metric by name.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "run only this workload (default: all, rounds interleaved)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		rounds   = flag.Int("rounds", minRounds, "timed rounds per workload, at least")
		seconds  = flag.Float64("seconds", 0, "keep adding timed rounds until each workload has measured this long")
		trace    = flag.Int("trace", 0, "1: also run the traced round, the direct drives and the drills, and report per-layer metrics")
		traceOut = flag.String("trace-out", "benchmark/out", "directory for the traced round's span files")
		jsonOut  = flag.String("json", "", "write the full session (medians, quartiles and every individual run) to this file")
		compare  = flag.Bool("compare", false, "compare two -json files given as arguments: A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files: A.json B.json"))
		}
		notOK, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if notOK {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *rounds < minRounds {
		fatal(fmt.Errorf("-rounds %d: a median needs at least %d rounds", *rounds, minRounds))
	}
	o := options{
		workloads: workloads, seed: *seed, rounds: *rounds,
		measure: time.Duration(*seconds * float64(time.Second)),
		inputs:  inputsPerRun,
		trace:   *trace != 0, traceDir: *traceOut, scale: 1,
	}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		o.workloads = []spec{w}
	}
	if o.trace {
		// The traced round, the drives and the drills share the
		// invocation's time with the timed rounds, and all of them run on
		// one input.
		o.measure /= 2
		o.inputs = 1
	}
	rep, err := runSession(o)
	if err != nil {
		fatal(err)
	}
	printReport(os.Stdout, rep, o.trace)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, rep); err != nil {
			fatal(err)
		}
	}
	failed := false
	for _, wr := range rep.Workloads {
		failed = failed || wr.Failed > 0
	}
	if len(rep.Workloads) == 1 {
		// The last line of standard output is the machine-readable result
		// of a single-workload run.
		line, err := json.Marshal(resultLine(rep.Workloads[0], o.trace))
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
