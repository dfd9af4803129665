package main

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pjoin/internal/core"
	"pjoin/internal/exec"
	"pjoin/internal/gen"
	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/stream"
)

// smallAuction wires the Fig. 1 join over a small auction workload with
// provenance tracing on (sample rate 1) and a gauge board, returning the
// pipeline unrun and everything the /metrics handler scrapes.
func smallAuction(t *testing.T) (*exec.Pipeline, *core.PJoin, *obs.Board, *span.Tee, *span.Sampler) {
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
	board := obs.NewBoard(10 * stream.Millisecond)
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
		Instr:              obs.NewInstr(spans, board, "join"),
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
	return p, join, board, spans, sampler
}

// runSmallAuction runs smallAuction's pipeline to its end.
func runSmallAuction(t *testing.T) (*core.PJoin, *obs.Board, *span.Tee, *span.Sampler) {
	t.Helper()
	p, join, board, spans, sampler := smallAuction(t)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return join, board, spans, sampler
}

// scrapeNames are the sample names a /metrics scrape serves: the six
// histograms' bucket, sum and count series, the snapshot time, the
// join's fourteen gauges and the six span counter families.
var scrapeNames = []string{
	"pjoin_batch_fill_bucket", "pjoin_batch_fill_count", "pjoin_batch_fill_sum",
	"pjoin_disk_chunk_duration_ns_bucket", "pjoin_disk_chunk_duration_ns_count", "pjoin_disk_chunk_duration_ns_sum",
	"pjoin_disk_pass_duration_ns_bucket", "pjoin_disk_pass_duration_ns_count", "pjoin_disk_pass_duration_ns_sum",
	"pjoin_join_bucket_skew", "pjoin_join_disk_bytes", "pjoin_join_mem_bytes_a", "pjoin_join_mem_bytes_b",
	"pjoin_join_mem_groups", "pjoin_join_punct_lag_ms", "pjoin_join_punct_set_a", "pjoin_join_punct_set_b",
	"pjoin_join_puncts_out", "pjoin_join_state_bytes_a", "pjoin_join_state_bytes_b", "pjoin_join_state_tuples",
	"pjoin_join_tuples_in", "pjoin_join_tuples_out",
	"pjoin_punct_delay_ns_bucket", "pjoin_punct_delay_ns_count", "pjoin_punct_delay_ns_sum",
	"pjoin_purge_duration_ns_bucket", "pjoin_purge_duration_ns_count", "pjoin_purge_duration_ns_sum",
	"pjoin_result_latency_ns_bucket", "pjoin_result_latency_ns_count", "pjoin_result_latency_ns_sum",
	"pjoin_sampled_at_ms",
	"pjoin_span_pass_total", "pjoin_span_point_total", "pjoin_span_punct_total",
	"pjoin_span_sampler_dropped_total", "pjoin_span_sampler_sampled_total", "pjoin_span_tuple_total",
}

// TestMetricsEndpointPromFormat scrapes the /metrics handler after a
// run and validates the body against the Prometheus text exposition
// checker shared with internal/obs.
func TestMetricsEndpointPromFormat(t *testing.T) {
	join, board, spans, sampler := runSmallAuction(t)
	if join.Metrics().TuplesOut == 0 {
		t.Fatal("workload produced no results: the scrape would be vacuous")
	}

	rec := httptest.NewRecorder()
	metricsHandler(join, board, spans, sampler)(rec, httptest.NewRequest("GET", "/metrics", nil))
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
	// The sample names are the pinned set, and every family has a HELP.
	names := map[string]bool{}
	help, typed := map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if f := strings.Fields(line); f[0] == "#" {
			help[f[2]] = help[f[2]] || f[1] == "HELP"
			typed[f[2]] = typed[f[2]] || f[1] == "TYPE"
			continue
		}
		names[strings.FieldsFunc(line, func(r rune) bool { return r == '{' || r == ' ' })[0]] = true
	}
	var got []string
	for n := range names {
		got = append(got, n)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, scrapeNames) {
		t.Errorf("scrape serves\n%v\nwant\n%v", got, scrapeNames)
	}
	for fam := range typed {
		if !help[fam] {
			t.Errorf("family %s has no HELP line", fam)
		}
	}
	if len(typed) != 6+15+6 {
		t.Errorf("%d families, want 27 (6 histograms, 15 gauges, 6 counters)", len(typed))
	}
	if g := join.Metrics(); !strings.Contains(string(body), fmt.Sprintf("pjoin_join_tuples_out %d\n", g.TuplesOut)) {
		t.Errorf("tuples_out gauge is not the join's %d results:\n%s", g.TuplesOut, body)
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

// TestMetricsEndpointNilLive: scraping without a gauge board or span
// tracer (health and tracing off) must still produce a valid
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

// TestBoardReadWhileRunning reads the board, and scrapes it, from another
// goroutine while the pipeline runs (under -race, the board's lock is
// what keeps the two apart): every read is one whole snapshot, so the
// cumulative gauges never step back, and the last read after Run is the
// join's final state.
func TestBoardReadWhileRunning(t *testing.T) {
	p, join, board, spans, sampler := smallAuction(t)
	done := make(chan struct{})
	reads := make(chan int)
	go func() {
		var last obs.Gauges
		n := 0
		for {
			select {
			case <-done:
				reads <- n
				return
			default:
			}
			g := board.Gauges()
			if g.TuplesIn < last.TuplesIn || g.TuplesOut < last.TuplesOut || g.PunctsOut < last.PunctsOut || g.At < last.At {
				t.Errorf("snapshot %+v after %+v: a cumulative gauge stepped back", g, last)
			}
			last = g
			rec := httptest.NewRecorder()
			metricsHandler(join, board, spans, sampler)(rec, httptest.NewRequest("GET", "/metrics", nil))
			n++
		}
	}()
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(done)
	if n := <-reads; n == 0 {
		t.Error("the reader never read the board")
	}
	m := join.Metrics()
	if g := board.Gauges(); g.TuplesIn != m.TuplesIn[0]+m.TuplesIn[1] || g.TuplesOut != m.TuplesOut || g.PunctsOut != m.PunctsOut {
		t.Errorf("final snapshot %+v, join's metrics %+v", g, m)
	}
}
