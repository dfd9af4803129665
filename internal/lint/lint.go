// Package lint assembles the pjoinlint analyzer suite. The analyzers
// prove, at compile time, invariants the dynamic tiers (alloc guards,
// race detector, oracle soak) can only sample: the zero-alloc hot
// paths, the operator driver contract, pooled-batch recycling, span
// lifecycle pairing, and no lock taken under another. See DESIGN.md §14.
package lint

import (
	"pjoin/internal/lint/analysis"
	"pjoin/internal/lint/hotpath"
	"pjoin/internal/lint/locksafe"
	"pjoin/internal/lint/opcontract"
	"pjoin/internal/lint/poolsafe"
	"pjoin/internal/lint/spanpair"
)

// Analyzers returns the full suite, in reporting order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		hotpath.Analyzer,
		opcontract.Analyzer,
		poolsafe.Analyzer,
		spanpair.Analyzer,
		locksafe.Analyzer,
	}
}
