package bench

// This file implements the machine-readable performance summary behind
// `make bench` (BENCH_3.json): a store-level micro-benchmark of the
// key-grouped probe, plus every simulated reproduction experiment's wall
// time, allocation rate and final work counters under both price lists
// (RunConfig.Indexed). The per-experiment rows are the receipt for the
// index's contract — identical TuplesOut/Purged, with Examined and
// PurgeScanned far below what the paper's table walk would examine.

import (
	"encoding/json"
	"fmt"
	"io"
	"testing"

	"pjoin/internal/gen"
	"pjoin/internal/store"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// Bench3Probe is the probe micro-benchmark: one bucket at the given
// occupancy, a key with the given number of matches.
type Bench3Probe struct {
	Occupancy       int   `json:"occupancy"`
	Matches         int   `json:"matches"`
	IndexedNsOp     int64 `json:"indexed_ns_op"`
	IndexedAllocsOp int64 `json:"indexed_allocs_op"`
}

// Bench3Work is one simulated operator's final work counters in one run.
type Bench3Work struct {
	Op           string `json:"op"`
	TuplesOut    int64  `json:"tuples_out"`
	Purged       int64  `json:"purged"`
	PurgeRuns    int64  `json:"purge_runs"`
	Examined     int64  `json:"examined"`
	PurgeScanned int64  `json:"purge_scanned"`
	DroppedOnFly int64  `json:"dropped_on_fly"`
}

// Bench3Mode is one price list's measurement of an experiment: the
// quick-horizon run benchmarked for wall time and allocations, and the
// per-operator work counters of one such run.
type Bench3Mode struct {
	NsOp     int64        `json:"ns_op"`
	AllocsOp int64        `json:"allocs_op"`
	Work     []Bench3Work `json:"work"`
}

// Bench3Experiment is one reproduction experiment measured under both
// price lists (scan = the paper's table walk, which the figures are
// rendered under; indexed = what the key-grouped engine examines).
type Bench3Experiment struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Scan    Bench3Mode `json:"scan"`
	Indexed Bench3Mode `json:"indexed"`
}

// Bench3 is the full report.
type Bench3 struct {
	Note        string             `json:"note"`
	Seed        uint64             `json:"seed"`
	Probe       Bench3Probe        `json:"probe_micro"`
	Experiments []Bench3Experiment `json:"experiments"`
}

// bench3ProbeState builds the micro-benchmark state: a single bucket
// holding occupancy tuples, matches of which carry the probed key,
// spread through the arrival order.
func bench3ProbeState(occupancy, matches int) (*store.State, value.Value, error) {
	st, err := store.NewState("A", 0, 1, store.NewMemSpill())
	if err != nil {
		return nil, value.Value{}, err
	}
	const hot = int64(1 << 40)
	stride := occupancy / matches
	for i := 0; i < occupancy; i++ {
		k := int64(i)
		if i%stride == stride/2 && i/stride < matches {
			k = hot
		}
		tp, err := stream.NewTuple(gen.SchemaA, stream.Time(i+1), value.Int(k), value.Str("p"))
		if err != nil {
			return nil, value.Value{}, err
		}
		if _, err := st.Insert(tp); err != nil {
			return nil, value.Value{}, err
		}
	}
	return st, value.Int(hot), nil
}

func bench3Probe() (Bench3Probe, error) {
	const occupancy, matches = 1024, 4
	st, key, err := bench3ProbeState(occupancy, matches)
	if err != nil {
		return Bench3Probe{}, err
	}
	dst := make([]*store.StoredTuple, 0, 8)
	indexed := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst, _ = st.ProbeMem(key, dst[:0])
		}
	})
	return Bench3Probe{
		Occupancy:       occupancy,
		Matches:         matches,
		IndexedNsOp:     indexed.NsPerOp(),
		IndexedAllocsOp: indexed.AllocsPerOp(),
	}, nil
}

func bench3Mode(e Experiment, seed uint64, indexed bool) (Bench3Mode, error) {
	rc := RunConfig{Seed: seed, Quick: true, Indexed: indexed}
	var runErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(rc); err != nil {
				runErr = err
				b.FailNow()
			}
		}
	})
	if runErr != nil {
		return Bench3Mode{}, runErr
	}
	rc.Work = &WorkLog{}
	if _, err := e.Run(rc); err != nil {
		return Bench3Mode{}, err
	}
	mode := Bench3Mode{NsOp: res.NsPerOp(), AllocsOp: res.AllocsPerOp(), Work: []Bench3Work{}}
	for _, row := range rc.Work.Rows {
		mode.Work = append(mode.Work, Bench3Work{
			Op:           row.Op,
			TuplesOut:    row.M.TuplesOut,
			Purged:       row.M.Purged,
			PurgeRuns:    row.M.PurgeRuns,
			Examined:     row.M.Examined,
			PurgeScanned: row.M.PurgeScanned,
			DroppedOnFly: row.M.DroppedOnFly,
		})
	}
	return mode, nil
}

// RunBench3 runs the full performance summary at the given workload
// seed. progress (optional) receives one line per experiment.
func RunBench3(seed uint64, progress io.Writer) (*Bench3, error) {
	if progress == nil {
		progress = io.Discard
	}
	out := &Bench3{
		Note: "quick-horizon runs of one engine under two price lists; scan = the paper's " +
			"table walk (every probe walks its bucket, every purge run the table: the regime " +
			"the figures are rendered under), indexed = what the key-grouped state examines. " +
			"TuplesOut/Purged must agree across the two; Examined/PurgeScanned shrink.",
		Seed: seed,
	}
	fmt.Fprintln(progress, "probe micro-benchmark (1024-occupancy bucket, 4 matches)...")
	probe, err := bench3Probe()
	if err != nil {
		return nil, err
	}
	out.Probe = probe
	for _, e := range Experiments() {
		if e.ID == "scale1" {
			// scale1 measures real wall clock across shard counts (and
			// always prices the engine's own counters); it has no pair of
			// simulated runs to compare, so it stays out of this report —
			// `make bench-scaling` covers it.
			continue
		}
		fmt.Fprintf(progress, "%s: scan + indexed quick runs...\n", e.ID)
		scan, err := bench3Mode(e, seed, false)
		if err != nil {
			return nil, fmt.Errorf("bench3: %s (scan): %w", e.ID, err)
		}
		indexed, err := bench3Mode(e, seed, true)
		if err != nil {
			return nil, fmt.Errorf("bench3: %s (indexed): %w", e.ID, err)
		}
		out.Experiments = append(out.Experiments, Bench3Experiment{
			ID: e.ID, Title: e.Title, Scan: scan, Indexed: indexed,
		})
	}
	return out, nil
}

// WriteJSON renders the report as indented JSON.
func (b *Bench3) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}
