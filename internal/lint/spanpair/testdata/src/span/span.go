// Package span stubs the span kinds the spanpair analyzer keys on.
package span

// Kind tags a span.
type Kind uint8

// The lifecycle kinds, then (from KindPurgeRun on) some of the point
// family.
const (
	KindPassBegin Kind = iota
	KindPassEnd
	KindPunctArrive
	KindPunctEmit
	KindPunctEOSClose
	KindPurgeRun
	KindOpStart
	KindOpFinish
	KindPunctDiscard
)
