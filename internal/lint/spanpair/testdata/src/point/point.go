// Package point emits only point kinds — discarded punctuations, an
// operator's start and finish — the way exec does: no lifecycle
// opens here, so the package owes no terminal and stays clean as long
// as every point record carries Trace 0.
package point

import "span"

type instr struct{}

// Span mirrors obs.Instr.Span's argument order: kind, trace, payload.
func (instr) Span(k span.Kind, trace uint64, n int64) {}

// Discard records an ignored punctuation: clean.
func Discard(in instr) { in.Span(span.KindPunctDiscard, 0, 1) }

// Lifecycle brackets an operator run with two point records: clean, and
// neither opens a "start" the package would have to close.
func Lifecycle(in instr) {
	in.Span(span.KindOpStart, 0, 0)
	in.Span(span.KindOpFinish, 0, 0)
}

// Misfiled puts a purge run under a punctuation's trace.
func Misfiled(in instr, trace uint64) {
	in.Span(span.KindPurgeRun, trace, 3) // want "point kind span\\.KindPurgeRun emitted under a trace"
}
