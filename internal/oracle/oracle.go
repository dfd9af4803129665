package oracle

import (
	"errors"
	"fmt"
	"strings"
)

// RefVariant is the canonical PJoin configuration whose propagated
// punctuation multiset every other PJoin variant is compared against:
// single instance, indexed, disk passes run to completion, plain spills.
var RefVariant = Variant{Op: "pjoin"}

// CheckOne runs the checks for a single variant (plus the oracle and
// reference runs they compare against). The shrinker's predicate.
func CheckOne(sc *Scenario, v Variant) []Divergence {
	ref, punctRef, ds := checkPrologue(sc)
	if ds != nil {
		return ds
	}
	return checkVariant(sc, v, ref, punctRef)
}

// checkPrologue validates the scenario and produces the two shared
// baselines: the shj oracle outcome and the reference PJoin's
// punctuation multiset. A non-nil divergence slice short-circuits.
func checkPrologue(sc *Scenario) (ref *Outcome, punctRef map[string]int, ds []Divergence) {
	if err := sc.Validate(); err != nil {
		return nil, nil, []Divergence{{Check: "generator", Detail: err.Error()}}
	}
	ref = RunOracle(sc, 0)
	if ref.Err != nil {
		return nil, nil, []Divergence{{Check: "oracle", Detail: ref.Err.Error()}}
	}
	pref := Run(sc, RefVariant, false)
	if pref.Err != nil {
		return nil, nil, []Divergence{{Variant: RefVariant, Check: "error", Detail: pref.Err.Error()}}
	}
	return ref, pref.Puncts, nil
}

// checkVariant runs one matrix row and returns its divergences.
func checkVariant(sc *Scenario, v Variant, ref *Outcome, punctRef map[string]int) []Divergence {
	var ds []Divergence
	out := Run(sc, v, false)
	if v.Fault && out.Err != nil {
		// The injected fault fired. The operator must have surfaced the
		// sentinel (not swallowed or replaced it) ...
		if !errors.Is(out.Err, ErrInjectedFault) {
			return []Divergence{{Variant: v, Check: "fault",
				Detail: fmt.Sprintf("spill fault surfaced as a different error: %v", out.Err)}}
		}
		// ... and a fresh fault-free instance must recover: same inputs,
		// clean run, oracle-identical results.
		out = Run(sc, v, true)
		if out.Err != nil {
			return []Divergence{{Variant: v, Check: "fault",
				Detail: fmt.Sprintf("fault-free recovery rerun failed: %v", out.Err)}}
		}
	}
	if out.Err != nil {
		return []Divergence{{Variant: v, Check: "error", Detail: out.Err.Error()}}
	}
	if v.Window > 0 {
		if ref = RunOracle(sc, v.Window); ref.Err != nil {
			return []Divergence{{Variant: v, Check: "oracle", Detail: ref.Err.Error()}}
		}
	}
	if d := diffMultisets(out.Tuples, ref.Tuples); d != "" {
		ds = append(ds, Divergence{Variant: v, Check: "results", Detail: d})
	}
	if out.Order != "" {
		ds = append(ds, Divergence{Variant: v, Check: "order", Detail: out.Order})
	}
	switch v.Op {
	case "pjoin":
		// A window row may release more: expiry empties punctuations the
		// reference still counts tuples for (§6), so it answers to the
		// licensed and order checks alone.
		if d := diffMultisets(out.Puncts, punctRef); d != "" && v.Window == 0 {
			ds = append(ds, Divergence{Variant: v, Check: "puncts",
				Detail: fmt.Sprintf("vs %s: %s", RefVariant, d)})
		}
		if d := checkLicensed(sc, out.Puncts); d != "" {
			ds = append(ds, Divergence{Variant: v, Check: "licensed", Detail: d})
		}
	case "xjoin":
		if len(out.Puncts) != 0 {
			ds = append(ds, Divergence{Variant: v, Check: "puncts",
				Detail: fmt.Sprintf("xjoin propagated %d punctuations, want 0", len(out.Puncts))})
		}
	}
	return append(ds, checkObs(v, out)...)
}

// Report renders divergences for humans, one per line.
func Report(ds []Divergence) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
