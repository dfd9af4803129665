// Package health watches a running join operator for the two anomalies
// a punctuated stream system can actually detect from the outside:
//
//   - Stall: input keeps arriving but neither results nor punctuation
//     propagations make progress for a configurable window. Under the
//     paper's model this is the signature of a wedged purge/disk path —
//     state grows, nothing leaves.
//
//   - Punctuation-lag SLO: the operator's punctuation lag (newest input
//     timestamp minus newest propagated punctuation) exceeds a bound.
//     Lag is the paper's cleanliness signal: it bounds how stale the
//     downstream view of "this subset is complete" can get, which is
//     exactly the feedback quantity the inter-operator-feedback line of
//     work wants operators to export.
//
// When either trips, the Detector fires ONCE (latched) and the caller
// dumps a flight-recorder bundle: the last N spans from an obs.Ring plus
// latency-histogram snapshots, as JSONL, for post-mortem.
package health

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/stream"
)

// Progress is one observation of an operator's externally visible
// counters. The probe that builds it must be safe on the goroutine it
// runs on (auctiond reads the join's obs.Board; the simulator reads operator
// metrics between drive steps).
type Progress struct {
	Now       stream.Time // operator virtual clock
	TuplesIn  int64       // data tuples consumed (both sides)
	TuplesOut int64       // results emitted
	PunctsOut int64       // punctuations propagated
	PunctLag  stream.Time // now − newest propagated punctuation ts
}

// Config bounds the detector. Zero StallWindow disables stall
// detection; zero LagSLO disables lag detection.
type Config struct {
	// StallWindow: fire if input advanced but neither TuplesOut nor
	// PunctsOut did for at least this much virtual time.
	StallWindow stream.Time
	// LagSLO: fire if PunctLag exceeds this bound.
	LagSLO stream.Time
}

// Report describes why the detector fired.
type Report struct {
	Reason string      // "stall" or "lag_slo"
	At     stream.Time // observation time of the firing sample
	Window stream.Time // how long output had been frozen (stall only)
	Lag    stream.Time // punctuation lag at firing
	Last   Progress    // the firing observation
}

func (r Report) String() string {
	switch r.Reason {
	case "stall":
		return fmt.Sprintf("stall: no output progress for %v (input flowing, lag %v)", r.Window, r.Lag)
	case "lag_slo":
		return fmt.Sprintf("lag_slo: punctuation lag %v exceeds SLO", r.Lag)
	default:
		return r.Reason
	}
}

// Detector is the latched anomaly detector. Observe it periodically
// with fresh Progress samples; the first anomalous sample returns
// (report, true), every later call returns (zero, false) — one flight
// dump per incident, not one per poll.
type Detector struct {
	cfg Config

	mu       sync.Mutex //pjoin:lockrank leaf
	started  bool
	fired    bool
	anchor   Progress    // sample at the last output/propagation advance
	anchorAt stream.Time // Now of that sample
}

// NewDetector returns a detector with the given bounds.
func NewDetector(cfg Config) *Detector { return &Detector{cfg: cfg} }

// Observe feeds one sample. Returns (report, true) exactly once, on the
// first sample that violates a bound. Safe for concurrent use.
func (d *Detector) Observe(p Progress) (Report, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fired {
		return Report{}, false
	}
	if !d.started {
		d.started = true
		d.anchor, d.anchorAt = p, p.Now
		return Report{}, false
	}
	if d.cfg.LagSLO > 0 && p.PunctLag > d.cfg.LagSLO {
		d.fired = true
		return Report{Reason: "lag_slo", At: p.Now, Lag: p.PunctLag, Last: p}, true
	}
	// Output or propagation advanced — or nothing arrived at all — so
	// the operator is not stalled; re-anchor the window.
	if p.TuplesOut > d.anchor.TuplesOut || p.PunctsOut > d.anchor.PunctsOut ||
		p.TuplesIn == d.anchor.TuplesIn {
		d.anchor, d.anchorAt = p, p.Now
		return Report{}, false
	}
	if d.cfg.StallWindow > 0 && p.Now-d.anchorAt >= d.cfg.StallWindow {
		d.fired = true
		return Report{
			Reason: "stall", At: p.Now, Window: p.Now - d.anchorAt,
			Lag: p.PunctLag, Last: p,
		}, true
	}
	return Report{}, false
}

// Fired reports whether the detector has latched.
func (d *Detector) Fired() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fired
}

// Dump writes the flight-recorder bundle as JSONL:
//
//	{"type":"flight","reason":...}   — one header line
//	{"sp":...}                       — the ring's retained spans, oldest
//	                                   → newest (span.JSONL format)
//	{"type":"hist","name":...}       — one summary per histogram of the
//	                                   obs.Hists table
//
// ring may be nil (no span section); every line is independently
// parseable JSON, so a truncated dump still yields its prefix.
func Dump(w io.Writer, r Report, ring *obs.Ring, lat obs.LatSnapshot) error {
	var spans []span.Span
	if ring != nil {
		spans = ring.Snapshot()
	}
	header := struct {
		Type      string `json:"type"`
		Reason    string `json:"reason"`
		AtNs      int64  `json:"at_ns"`
		WindowNs  int64  `json:"window_ns"`
		LagNs     int64  `json:"lag_ns"`
		TuplesIn  int64  `json:"tuples_in"`
		TuplesOut int64  `json:"tuples_out"`
		PunctsOut int64  `json:"puncts_out"`
		Events    int    `json:"events"`
	}{
		Type: "flight", Reason: r.Reason, AtNs: int64(r.At),
		WindowNs: int64(r.Window), LagNs: int64(r.Lag),
		TuplesIn: r.Last.TuplesIn, TuplesOut: r.Last.TuplesOut,
		PunctsOut: r.Last.PunctsOut, Events: len(spans),
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return err
	}
	sink := span.NewJSONL(w)
	for _, s := range spans {
		sink.Emit(s)
	}
	if err := sink.Flush(); err != nil {
		return err
	}
	for _, d := range obs.Hists {
		h := d.Of(&lat)
		line := struct {
			Type  string `json:"type"`
			Name  string `json:"name"`
			Count int64  `json:"count"`
			Sum   int64  `json:"sum"`
			Max   int64  `json:"max"`
			P50   int64  `json:"p50"`
			P95   int64  `json:"p95"`
			P99   int64  `json:"p99"`
		}{
			Type: "hist", Name: d.Name, Count: h.Count, Sum: h.Sum,
			Max: h.Max, P50: h.Quantile(0.5), P95: h.Quantile(0.95),
			P99: h.Quantile(0.99),
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// DumpToFile writes the bundle to path via obs.CreateSink, so a ".gz"
// path produces a gzip-compressed dump.
func DumpToFile(path string, r Report, ring *obs.Ring, lat obs.LatSnapshot) error {
	w, err := obs.CreateSink(path)
	if err != nil {
		return err
	}
	if err := Dump(w, r, ring, lat); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
