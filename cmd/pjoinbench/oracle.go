package main

import (
	"fmt"
	"io"

	"pjoin/internal/oracle"
)

// runOracleReplay re-runs one minimized spec, printing its scenario
// stats and every divergence it still reproduces. A clean replay exits
// zero (the bug is fixed); reproduced divergences exit nonzero.
func runOracleReplay(raw string, w io.Writer) error {
	spec, err := oracle.ParseSpec(raw)
	if err != nil {
		return err
	}
	sc := spec.Scenario()
	tuples, puncts := sc.Stats()
	fmt.Fprintf(w, "replaying %s\n  %d arrivals (tuples %d+%d, puncts %d+%d), buckets=%d purge=%d mem=%d\n",
		spec, len(sc.Arrivals), tuples[0], tuples[1], puncts[0], puncts[1],
		sc.NumBuckets, sc.Purge, sc.MemoryBytes)
	ds := spec.Replay()
	if len(ds) == 0 {
		fmt.Fprintln(w, "clean: the divergence no longer reproduces")
		return nil
	}
	fmt.Fprint(w, oracle.Report(ds))
	return fmt.Errorf("oracle: replay reproduced %d divergence(s)", len(ds))
}
