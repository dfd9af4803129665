package obs

import (
	"reflect"

	"pjoin/internal/obs/hist"
	"pjoin/internal/stream"
)

// HistDef is one row of the histogram table.
type HistDef struct {
	Field string // the Lat / LatSnapshot field holding it
	Name  string // wire name: the <prefix>_<Name> Prometheus family, the flight dump's "name"
	Help  string // Prometheus HELP text
}

// Hists is the one declaration of the latency histograms: NewLat,
// Snapshot, WriteProm and the flight dump all iterate it, so a new histogram is one field in Lat, one in
// LatSnapshot and one row here.
var Hists = []HistDef{
	{"Result", "result_latency_ns", "Tuple-arrival to result-emit latency (virtual ns)."},
	{"PunctDelay", "punct_delay_ns", "Punctuation-arrival to downstream-propagation delay (virtual ns)."},
	{"Purge", "purge_duration_ns", "Wall-clock duration of one state-purge pass (ns)."},
	{"DiskChunk", "disk_chunk_duration_ns", "Wall-clock duration of one incremental disk-join step (ns)."},
	{"DiskPass", "disk_pass_duration_ns", "Wall-clock duration of one complete disk-join pass (ns)."},
	{"BatchFill", "batch_fill", "Items per delivered input batch (count; empty when driven through Process directly)."},
}

// Of returns d's histogram in s.
func (d HistDef) Of(s *LatSnapshot) *hist.Snapshot {
	return reflect.ValueOf(s).Elem().FieldByName(d.Field).Addr().Interface().(*hist.Snapshot)
}

// Lat bundles the latency histograms every join operator keeps.
// All values are nanoseconds; Result and PunctDelay are *virtual* time
// (the stream clock the operator advances on arrivals), Purge is wall
// clock (purge passes run inside one operator call, so virtual time
// cannot advance across them).
//
// A nil *Lat is a valid "not measuring" handle: every method no-ops, so
// operators record unconditionally and an un-instrumented run pays only
// a nil check. Recording is allocation-free and lock-free (see
// internal/obs/hist); snapshots may be taken from any goroutine while
// the operator runs.
type Lat struct {
	// Result: tuple-arrival → result-emit latency. A result tuple's
	// timestamp is the max of its inputs' timestamps (stream.Tuple.Join),
	// so operator-now minus result-timestamp is exactly how long the
	// older constituent waited in state before the match was emitted.
	Result *hist.Hist
	// PunctDelay: punctuation-arrival → downstream-propagation delay.
	PunctDelay *hist.Hist
	// Purge: wall-clock duration of one purge pass.
	Purge *hist.Hist
	// DiskChunk: wall-clock duration of one bounded step of an
	// incremental disk pass (a chunk read, a batch of pair checks, or a
	// bucket finalise). The chunk budget caps these — the histogram is
	// the evidence the hot path never stalls longer than one chunk.
	DiskChunk *hist.Hist
	// DiskPass: wall-clock duration of one complete disk pass, drained
	// or budgeted (start of the pass to its last step).
	DiskPass *hist.Hist
	// BatchFill: items per delivered batch (a count, not nanoseconds).
	// One sample per ProcessBatch call, which is how the executor enters
	// a join at every batch size (all ones at size 1); empty only when
	// the operator is driven through Process directly (simulator,
	// oracle). Mean fill vs. the configured batch size shows whether the
	// linger window or the size cap is cutting batches.
	BatchFill *hist.Hist
}

// NewLat returns a Lat with all histograms allocated.
func NewLat() *Lat {
	l := &Lat{}
	v := reflect.ValueOf(l).Elem()
	for _, d := range Hists {
		v.FieldByName(d.Field).Set(reflect.ValueOf(hist.New()))
	}
	return l
}

// RecordResult records one emitted result's latency (now − result ts).
func (l *Lat) RecordResult(now, ts stream.Time) {
	if l == nil {
		return
	}
	l.Result.Record(int64(now) - int64(ts))
}

// RecordPunctDelay records one propagated punctuation's delay
// (now − arrival ts).
func (l *Lat) RecordPunctDelay(now, arrived stream.Time) {
	if l == nil {
		return
	}
	l.PunctDelay.Record(int64(now) - int64(arrived))
}

// RecordPurge records one purge pass's wall-clock duration in ns.
func (l *Lat) RecordPurge(ns int64) {
	if l == nil {
		return
	}
	l.Purge.Record(ns)
}

// RecordDiskChunk records one incremental-disk-pass step's wall-clock
// duration in ns.
func (l *Lat) RecordDiskChunk(ns int64) {
	if l == nil {
		return
	}
	l.DiskChunk.Record(ns)
}

// RecordDiskPass records one complete disk pass's wall-clock duration in
// ns (drained and budgeted passes alike).
func (l *Lat) RecordDiskPass(ns int64) {
	if l == nil {
		return
	}
	l.DiskPass.Record(ns)
}

// RecordBatchFill records one delivered batch's item count.
func (l *Lat) RecordBatchFill(n int) {
	if l == nil {
		return
	}
	l.BatchFill.Record(int64(n))
}

// LatSnapshot is a point-in-time copy of a Lat, safe to serialise.
type LatSnapshot struct {
	Result     hist.Snapshot
	PunctDelay hist.Snapshot
	Purge      hist.Snapshot
	DiskChunk  hist.Snapshot
	DiskPass   hist.Snapshot
	BatchFill  hist.Snapshot
}

// Snapshot copies all histograms. Nil-safe (returns an empty snapshot).
func (l *Lat) Snapshot() LatSnapshot {
	var s LatSnapshot
	if l == nil {
		return s
	}
	v := reflect.ValueOf(l).Elem()
	for _, d := range Hists {
		*d.Of(&s) = v.FieldByName(d.Field).Interface().(*hist.Hist).Snapshot()
	}
	return s
}
