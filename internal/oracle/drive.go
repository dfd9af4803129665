package oracle

import (
	"fmt"
	"sort"
	"strings"

	"pjoin/internal/gen"
	"pjoin/internal/joinbase"
	"pjoin/internal/obs"
	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// Outcome is one run's audited output: the result-tuple multiset
// (keyed by full rendering — values and timestamp, both deterministic
// because a result's timestamp is the max of its constituents'), the
// propagated-punctuation multiset (keyed by pattern only — propagation
// *time* legitimately differs across schedules), emission order
// bookkeeping, and the operator's own accounting.
type Outcome struct {
	Tuples map[string]int
	Puncts map[string]int
	Order  string // the output's first breach of the order rules (checkOrder), "" if none

	Metrics joinbase.Metrics
	Lat     obs.LatSnapshot
	HasObs  bool // shj exposes no Metrics/Latencies

	// Fed counts what the driver actually delivered, for reconciliation
	// against the operator's Metrics.
	FedTuples [2]int64
	FedPuncts [2]int64

	Err error // first operator error (faulted runs: must be ErrInjectedFault)
}

// summarize audits a run's output: its order first, then the multisets,
// which forget it.
func (out *Outcome) summarize(items []stream.Item) {
	out.Order = checkOrder(items)
	out.Tuples, out.Puncts = map[string]int{}, map[string]int{}
	for _, it := range items {
		switch it.Kind {
		case stream.KindTuple:
			out.Tuples[it.Tuple.String()]++
		case stream.KindPunct:
			out.Puncts[it.Punct.String()]++
		}
	}
}

// checkOrder holds an ordered output to Theorem 1 and the EOS rule: no
// result tuple follows an output punctuation that matches it (by that
// punctuation's own Matches over the result values), and EOS comes
// exactly once, last. It returns the first breach, or "".
func checkOrder(items []stream.Item) string {
	var puncts []stream.Item
	for i, it := range items {
		switch it.Kind {
		case stream.KindTuple:
			for _, p := range puncts {
				if p.Punct.Matches(it.Tuple.Values) {
					return fmt.Sprintf("result %s (item %d) follows %s, which matches it", it.Tuple, i, p)
				}
			}
		case stream.KindPunct:
			puncts = append(puncts, it)
		case stream.KindEOS:
			if i != len(items)-1 {
				return fmt.Sprintf("EOS is item %d of %d", i, len(items))
			}
		}
	}
	if len(items) == 0 || items[len(items)-1].Kind != stream.KindEOS {
		return "the output does not end in EOS"
	}
	return ""
}

// checkLicensed holds a PJoin's propagated punctuations to its inputs:
// an output pattern may appear at most as often as input punctuations
// widen to it at their port's offset. The widening is done here, not by
// core.OutputPunctuation, so a bug in that rewrite cannot license its
// own output. It returns the unlicensed patterns, or "".
func checkLicensed(sc *Scenario, puncts map[string]int) string {
	wA := gen.SchemaA.Width()
	licensed := map[string]int{}
	for _, a := range sc.Arrivals {
		if a.Item.Kind == stream.KindPunct {
			p, err := a.Item.Punct.Widen(wA+gen.SchemaB.Width(), a.Port*wA)
			if err != nil {
				return err.Error()
			}
			licensed[p.String()]++
		}
	}
	var bad []string
	for p, n := range puncts {
		if n > licensed[p] {
			bad = append(bad, fmt.Sprintf("%s: emitted %d, licensed %d", p, n, licensed[p]))
		}
	}
	sort.Strings(bad)
	return strings.Join(bad, "; ")
}

// Run drives the variant over the scenario and returns the audited
// outcome. disableFault reruns a faulted variant with injection off
// (the recovery half of the fault check).
func Run(sc *Scenario, v Variant, disableFault bool) *Outcome {
	sink := &op.Collector{}
	j, err := build(sc, v, sink, disableFault, nil)
	if err != nil {
		return &Outcome{Err: err}
	}
	out := drive(j, sc, v)
	out.summarize(sink.Items)
	out.Metrics, out.Lat, out.HasObs = j.Metrics(), j.Latencies(), true
	return out
}

// RunOracle drives the brute-force shj join over the scenario, keeping
// only the pairs within window of each other when window is positive.
func RunOracle(sc *Scenario, window stream.Time) *Outcome {
	sink := &op.Collector{}
	j, err := buildOracle(sc, window, sink)
	if err != nil {
		return &Outcome{Err: err}
	}
	out := drive(j, sc, Variant{})
	out.summarize(sink.Items)
	return out
}

// drive runs the shared schedule: every arrival at its own timestamp,
// deterministic OnIdle pulses every IdleEvery arrivals (so the reactive
// disk join and chunk pump run identically across variants), EOS appended
// for any port the schedule left open (the shrinker cuts prefixes), then
// Finish. All operators are held to the same contract (documented in
// internal/op): items in timestamp order, EOS once per port, Finish only
// after EOS on both ports. Scrambled variants get the scenario's tuples
// with their own Ts scrambled.
//
// Variants with Batch > 1 get the schedule through op.ProcessAll in
// batches of up to v.Batch consecutive same-port items — the oracle's
// analogue of the executor's batched edges. Cut rules mirror exec:
// non-tuple items (punctuations, EOS) always terminate their batch, a
// port change cuts (the executor never mixes ports in one batch), a
// positive Linger bounds the virtual-time span one batch may cover
// (Linger 0 leaves the span unbounded, so size is the only cap), and
// OnIdle pulses fire only between batches, after everything earlier in
// the schedule has been delivered. Batch <= 1 is per-item delivery: every
// item is a batch of one, handed to Process. op.BatchProcessor's
// equivalence contract makes the two observably identical; the
// differential checks against the per-item shj oracle and the per-item
// reference punctuation multiset are the enforcement.
func drive(j op.Operator, sc *Scenario, v Variant) *Outcome {
	if v.Scramble {
		sc = sc.scrambled()
	}
	out := &Outcome{}
	var (
		last    stream.Time
		eos     [2]bool
		buf     []stream.Item
		bufPort int
	)
	fail := func(err error) *Outcome { out.Err = err; return out }
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		var err error
		if v.Batch <= 1 {
			err = j.Process(bufPort, buf[0], buf[0].Ts)
		} else {
			err = op.ProcessAll(j, bufPort, buf)
		}
		last = buf[len(buf)-1].Ts
		buf = buf[:0]
		return err
	}
	for i, a := range sc.Arrivals {
		idleDue := sc.IdleEvery > 0 && i%sc.IdleEvery == sc.IdleEvery-1
		if len(buf) > 0 && (idleDue || a.Port != bufPort ||
			(v.Linger > 0 && a.Item.Ts-buf[0].Ts > v.Linger)) {
			if err := flush(); err != nil {
				return fail(fmt.Errorf("batch before arrival %d: %w", i, err))
			}
		}
		if idleDue && a.Item.Ts > last+1 {
			if _, err := j.OnIdle(a.Item.Ts - 1); err != nil {
				return fail(fmt.Errorf("OnIdle before arrival %d: %w", i, err))
			}
		}
		if len(buf) == 0 {
			bufPort = a.Port
		}
		buf = append(buf, a.Item)
		switch a.Item.Kind {
		case stream.KindTuple:
			out.FedTuples[a.Port]++
		case stream.KindPunct:
			out.FedPuncts[a.Port]++
		case stream.KindEOS:
			eos[a.Port] = true
		}
		if a.Item.Kind != stream.KindTuple || len(buf) >= v.Batch {
			if err := flush(); err != nil {
				return fail(fmt.Errorf("batch at arrival %d (%v): %w", i, a.Item.Kind, err))
			}
		}
	}
	if err := flush(); err != nil {
		return fail(fmt.Errorf("final batch: %w", err))
	}
	for port := 0; port < 2; port++ {
		if eos[port] {
			continue
		}
		last++
		if err := j.Process(port, stream.EOSItem(last), last); err != nil {
			return fail(fmt.Errorf("EOS port %d: %w", port, err))
		}
	}
	if err := j.Finish(last + 1); err != nil {
		return fail(fmt.Errorf("Finish: %w", err))
	}
	return out
}

// Divergence is one failed check from a comparison.
type Divergence struct {
	Variant Variant
	Check   string // "results", "order", "puncts", "licensed", "obs", "spans", "error", "fault"
	Detail  string
}

func (d Divergence) String() string {
	return fmt.Sprintf("[%s] %s: %s", d.Variant, d.Check, d.Detail)
}

func diffMultisets(a, b map[string]int) string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var d []string
	for _, k := range keys {
		if a[k] != b[k] {
			d = append(d, fmt.Sprintf("%s: got %d want %d", k, a[k], b[k]))
		}
	}
	if len(d) > 8 {
		d = append(d[:8], fmt.Sprintf("... and %d more", len(d)-8))
	}
	return strings.Join(d, "; ")
}

// checkObs reconciles the operator's own accounting against the
// driver's ground truth and the latency histograms against the work
// counters. A mismatch means the observability layer is lying about
// the work done — the same class of bug as a wrong result, for anyone
// operating the system off its metrics.
func checkObs(v Variant, out *Outcome) []Divergence {
	if !out.HasObs {
		return nil
	}
	var ds []Divergence
	bad := func(f string, args ...any) {
		ds = append(ds, Divergence{Variant: v, Check: "obs", Detail: fmt.Sprintf(f, args...)})
	}
	m := out.Metrics
	for p := 0; p < 2; p++ {
		if m.TuplesIn[p] != out.FedTuples[p] {
			bad("TuplesIn[%d]=%d, driver fed %d", p, m.TuplesIn[p], out.FedTuples[p])
		}
	}
	var emitted int64
	for _, n := range out.Tuples {
		emitted += int64(n)
	}
	if m.TuplesOut != emitted {
		bad("TuplesOut=%d, sink saw %d", m.TuplesOut, emitted)
	}
	var punctsOut int64
	for _, n := range out.Puncts {
		punctsOut += int64(n)
	}
	if m.PunctsOut != punctsOut {
		bad("PunctsOut=%d, sink saw %d", m.PunctsOut, punctsOut)
	}
	for p := 0; p < 2; p++ {
		if m.PunctsIn[p] != out.FedPuncts[p] {
			bad("PunctsIn[%d]=%d, driver fed %d", p, m.PunctsIn[p], out.FedPuncts[p])
		}
	}
	// Histogram/counter reconciliation: every emitted result, propagated
	// punctuation, disk chunk and disk pass records exactly one sample.
	if got := out.Lat.Result.Count; got != m.TuplesOut {
		bad("Lat.Result.Count=%d, Metrics.TuplesOut=%d", got, m.TuplesOut)
	}
	if got := out.Lat.PunctDelay.Count; got != m.PunctsOut {
		bad("Lat.PunctDelay.Count=%d, Metrics.PunctsOut=%d", got, m.PunctsOut)
	}
	if got := out.Lat.DiskChunk.Count; got != m.DiskChunks {
		bad("Lat.DiskChunk.Count=%d, Metrics.DiskChunks=%d", got, m.DiskChunks)
	}
	if got := out.Lat.DiskPass.Count; got != m.DiskPasses {
		bad("Lat.DiskPass.Count=%d, Metrics.DiskPasses=%d", got, m.DiskPasses)
	}
	// Batched delivery records one BatchFill sample per ProcessBatch
	// call. A per-item row goes through Process alone, so it counts no
	// batch.
	if got := out.Lat.BatchFill.Count; got != m.Batches {
		bad("Lat.BatchFill.Count=%d, Metrics.Batches=%d", got, m.Batches)
	}
	if v.Batch <= 1 && m.Batches != 0 {
		bad("Metrics.Batches=%d on a per-item row", m.Batches)
	}
	return ds
}
