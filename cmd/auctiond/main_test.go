package main

import (
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"pjoin/internal/core"
	"pjoin/internal/exec"
	"pjoin/internal/gen"
	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/stream"
)

// runSmallAuction drives the Fig. 1 join over a small auction workload
// with provenance tracing on (sample rate 1) and returns everything
// the /metrics handler scrapes.
func runSmallAuction(t *testing.T) (*core.PJoin, *obs.Live, *span.Tee, *span.Sampler) {
	t.Helper()
	arrs, err := gen.Auction(gen.AuctionConfig{
		Seed: 1, Items: 20,
		OpenMean:        2 * stream.Millisecond,
		AuctionLength:   60 * stream.Millisecond,
		BidMean:         4 * stream.Millisecond,
		UniqueOpenPunct: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var open, bids []stream.Item
	for _, a := range arrs {
		if a.Port == gen.AuctionPortOpen {
			open = append(open, a.Item)
		} else {
			bids = append(bids, a.Item)
		}
	}
	live := obs.NewLive(10 * stream.Millisecond)
	spans := span.NewTee(span.NewJSONL(io.Discard))
	sampler := span.NewSampler(1)
	p := exec.NewPipeline()
	p.SpanSampler = sampler
	p.Obs = obs.NewInstr(spans, nil, "exec")
	srcOpen, srcBid, joined := p.Edge(), p.Edge(), p.Edge()
	cfg := core.Config{
		SchemaA: gen.OpenSchema, SchemaB: gen.BidSchema,
		AttrA: 0, AttrB: 0, OutName: "Out1",
		VerifyPunctuations: true,
		Instr:              obs.NewInstr(spans, live, "join"),
	}
	cfg.Thresholds.Purge = 1
	cfg.Thresholds.PropagateCount = 1
	join, err := core.New(cfg, joined)
	if err != nil {
		t.Fatal(err)
	}
	p.SourceItems(srcOpen, open, false)
	p.SourceItems(srcBid, bids, false)
	if err := p.Spawn(join, srcOpen, srcBid); err != nil {
		t.Fatal(err)
	}
	p.Sink(joined)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return join, live, spans, sampler
}

// TestMetricsEndpointPromFormat scrapes the /metrics handler after a
// run and validates the body against the Prometheus text exposition
// checker shared with internal/obs.
func TestMetricsEndpointPromFormat(t *testing.T) {
	join, live, spans, sampler := runSmallAuction(t)
	if join.Metrics().TuplesOut == 0 {
		t.Fatal("workload produced no results: the scrape would be vacuous")
	}

	rec := httptest.NewRecorder()
	metricsHandler(join, live, spans, sampler)(rec, httptest.NewRequest("GET", "/metrics", nil))
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	if err := obs.CheckPromFormat(body); err != nil {
		t.Fatalf("scrape is not valid Prometheus text format: %v\n%s", err, body)
	}
	for _, want := range []string{
		"pjoin_result_latency_ns_count",
		"pjoin_punct_delay_ns_bucket",
		"pjoin_purge_duration_ns_sum",
		"pjoin_join_tuples_out",
		"# TYPE pjoin_span_punct_total counter",
		"# TYPE pjoin_span_sampler_sampled_total counter",
		"# TYPE pjoin_span_sampler_dropped_total counter",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("scrape is missing %s", want)
		}
	}
	// Tracing ran at sample rate 1 over a real workload: the punct and
	// tuple span families and the sampler admit count must be non-zero
	// (the drop family is present but zero at rate 1).
	for _, zeroBad := range []string{
		"pjoin_span_punct_total 0",
		"pjoin_span_tuple_total 0",
		"pjoin_span_sampler_sampled_total 0",
	} {
		if strings.Contains(string(body), zeroBad+"\n") {
			t.Errorf("span family unexpectedly zero: %s", zeroBad)
		}
	}
}

// TestMetricsEndpointNilLive: scraping without a sampler, span tracer
// or gauges (health and tracing off) must still produce a valid
// exposition, with the span families rendered as zeros.
func TestMetricsEndpointNilLive(t *testing.T) {
	join, _, _, _ := runSmallAuction(t)
	rec := httptest.NewRecorder()
	metricsHandler(join, nil, nil, nil)(rec, httptest.NewRequest("GET", "/metrics", nil))
	if err := obs.CheckPromFormat(rec.Body.Bytes()); err != nil {
		t.Fatalf("scrape without sampler invalid: %v", err)
	}
	if !strings.Contains(rec.Body.String(), "pjoin_span_sampler_dropped_total 0") {
		t.Errorf("span families should render as zeros when tracing is off:\n%s", rec.Body.String())
	}
}
