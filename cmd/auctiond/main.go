// Command auctiond runs the paper's running example (§1.1, Fig. 1) as a
// live pipeline: an online-auction workload streams through
// PJoin(Open, Bid) on item_id into a punctuation-aware group-by that
// emits each item's bid total as soon as its auction closes.
//
// Usage:
//
//	auctiond                       # 100 items, as fast as possible
//	auctiond -items 500 -paced    # honour the workload's timestamps
//	auctiond -purge 10            # lazy purge with threshold 10
//	auctiond -paced -http :6060   # expvar gauges, pprof and /metrics
//	auctiond -paced -http :6060 -lag-slo-ms 500 -stall-ms 2000 \
//	         -flight flight.jsonl.gz   # health SLOs + flight recorder
//	auctiond -disk-chunk-kb 64 -http :6060   # incremental disk join
//	auctiond -batch 256 -batch-linger-ms 1   # batched edge delivery
//	                                  # (punctuations still flush immediately)
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -http server
	"os"
	"time"

	"pjoin/internal/core"
	"pjoin/internal/exec"
	"pjoin/internal/gen"
	"pjoin/internal/obs"
	"pjoin/internal/obs/health"
	"pjoin/internal/obs/span"
	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// metricsHandler serves the join's latency histograms, live gauges and
// span counters in Prometheus text exposition format (0.0.4).
// Latencies() snapshots are atomic reads, LastValues() is mutex-guarded,
// and the span counters are atomic snapshots, so scraping is safe while
// the pipeline runs. spans and sampler may be nil (no tracer attached);
// the span families then render as zeros.
func metricsHandler(join *core.PJoin, live *obs.Live, spans *span.Tee, sampler *span.Sampler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		gauges := map[string]float64{}
		if live != nil {
			vals, at := live.LastValues()
			for k, v := range vals {
				gauges[k] = v
			}
			gauges["sampled_at_ms"] = at.Millis()
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WriteProm(w, "pjoin", join.Latencies(), gauges); err != nil {
			log.Printf("auctiond: /metrics: %v", err)
			return
		}
		if err := obs.WritePromSpans(w, "pjoin", spans.Counts(), sampler.Sampled(), sampler.Dropped()); err != nil {
			log.Printf("auctiond: /metrics: %v", err)
		}
	}
}

func main() {
	var (
		items    = flag.Int("items", 100, "number of auctions")
		seed     = flag.Uint64("seed", 1, "workload seed")
		paced    = flag.Bool("paced", false, "pace sources by workload timestamps (real time)")
		purge    = flag.Int("purge", 1, "purge threshold (1 = eager)")
		verbose  = flag.Bool("v", false, "print every group row")
		httpAddr = flag.String("http", "", "serve expvar (/debug/vars), pprof (/debug/pprof) and Prometheus /metrics on this address, e.g. :6060")
		lagSLO   = flag.Int64("lag-slo-ms", 0, "fire the health detector when punctuation lag exceeds this many ms (0 disables)")
		stallMs  = flag.Int64("stall-ms", 0, "fire the health detector when no output progress happens for this many ms while input flows (0 disables)")
		flight   = flag.String("flight", "flight.jsonl.gz", "where a firing health detector dumps the flight record (.gz compresses)")
		chunkKB  = flag.Int("disk-chunk-kb", 0, "run disk passes incrementally with this per-step read budget in KiB (0 = run each pass to completion)")
		batchN   = flag.Int("batch", 0, "deliver items to operators in batches of up to this size (<= 1 = batches of one); punctuations and EOS always flush the batch")
		lingerMs = flag.Int("batch-linger-ms", 0, "bound how long a tuple may wait in an edge buffer before its batch is cut (0 = flush on every emit); only meaningful with -batch > 1")
		tracePth = flag.String("trace", "", "write the span trace (JSONL, .gz compresses) to this path; analyze with pjointrace")
		traceN   = flag.Int("trace-sample", 64, "with -trace, admit one in N tuples into tracing (1 = every tuple); punctuation, disk-pass and point spans are always recorded")
	)
	flag.Parse()

	arrs, err := gen.Auction(gen.AuctionConfig{
		Seed:            *seed,
		Items:           *items,
		OpenMean:        2 * stream.Millisecond,
		AuctionLength:   60 * stream.Millisecond,
		BidMean:         4 * stream.Millisecond,
		UniqueOpenPunct: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := gen.Validate(arrs); err != nil {
		log.Fatalf("generated workload invalid: %v", err)
	}
	var open, bids []stream.Item
	for _, a := range arrs {
		if a.Port == gen.AuctionPortOpen {
			open = append(open, a.Item)
		} else {
			bids = append(bids, a.Item)
		}
	}
	st := gen.Summarize(arrs)
	fmt.Printf("auctiond: %d items, %d bids, %d punctuations, %.0f ms of stream time\n",
		st.Tuples[0], st.Tuples[1], st.Puncts[0]+st.Puncts[1], st.Span.Millis())

	healthOn := *lagSLO > 0 || *stallMs > 0

	// With -http, the join's live gauges are published through expvar
	// and /metrics: curl the endpoint mid-run (use -paced so the run
	// lasts) to watch state size and punctuation lag move. Timestamps
	// are the executor's wall-clock restamps, so a 10ms sampling tick is
	// real time here. The health watcher polls the same gauges, so it
	// needs the sampler even without -http.
	var live *obs.Live
	if *httpAddr != "" || healthOn {
		live = obs.NewLive(10 * stream.Millisecond)
		expvar.Publish("pjoin", expvar.Func(func() any {
			vals, at := live.LastValues()
			return map[string]any{"sampled_at_ms": at.Millis(), "gauges": vals}
		}))
	}
	// One tracer slot, up to two sinks behind it. The flight ring keeps
	// the last spans for the dump; it only spends memory when the health
	// detector can fire. -trace writes every span to a file: punctuation
	// lifecycles, disk passes and point records always, tuples through
	// the sampler.
	var sinks []span.Tracer
	var ring *obs.Ring
	if healthOn {
		ring = obs.NewRing(256)
		sinks = append(sinks, ring)
	}
	var spanSink io.WriteCloser
	var spans *span.JSONL
	var sampler *span.Sampler
	if *tracePth != "" {
		var err error
		spanSink, err = obs.CreateSink(*tracePth)
		if err != nil {
			log.Fatalf("auctiond: -trace: %v", err)
		}
		spans = span.NewJSONL(spanSink)
		sampler = span.NewSampler(*traceN)
		sinks = append(sinks, spans)
	}
	// The tee also counts spans by kind, which is what /metrics scrapes.
	var tee *span.Tee
	var tracer span.Tracer
	if len(sinks) > 0 {
		tee = span.NewTee(sinks...)
		tracer = tee
	}

	p := exec.NewPipeline()
	// Batch settings must be in place before edges are created: an edge's
	// delivery mode is fixed at creation.
	p.BatchSize = *batchN
	p.BatchLinger = time.Duration(*lingerMs) * time.Millisecond
	p.SpanSampler = sampler
	// The pipeline handle carries the same tracer, so the executor's own
	// spans (source ingest, edge cuts, driver delivery, operator
	// start/finish) land where the join's do.
	p.Obs = obs.NewInstr(tracer, nil, "exec")
	srcOpen, srcBid, joined, grouped := p.Edge(), p.Edge(), p.Edge(), p.Edge()
	cfg := core.Config{
		SchemaA: gen.OpenSchema, SchemaB: gen.BidSchema,
		AttrA: 0, AttrB: 0, OutName: "Out1",
		VerifyPunctuations: true,
		Instr:              obs.NewInstr(tracer, live, "join"),
		DiskChunkBytes:     *chunkKB << 10,
	}
	cfg.Thresholds.Purge = *purge
	cfg.Thresholds.PropagateCount = 1
	join, err := core.New(cfg, joined)
	if err != nil {
		log.Fatal(err)
	}
	gb, err := op.NewGroupBy(join.OutSchema(), 0,
		join.OutSchema().MustIndexOf("bid_increase"), op.AggSum, grouped)
	if err != nil {
		log.Fatal(err)
	}
	p.SourceItems(srcOpen, open, *paced)
	p.SourceItems(srcBid, bids, *paced)
	if err := p.Spawn(join, srcOpen, srcBid); err != nil {
		log.Fatal(err)
	}
	if err := p.Spawn(gb, joined); err != nil {
		log.Fatal(err)
	}
	sink := p.Sink(grouped)

	if *httpAddr != "" {
		http.HandleFunc("/metrics", metricsHandler(join, live, tee, sampler))
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				log.Printf("auctiond: http: %v", err)
			}
		}()
		fmt.Printf("serving expvar, pprof and /metrics on %s\n", *httpAddr)
	}

	start := time.Now()
	if healthOn {
		d := health.NewDetector(health.Config{
			StallWindow: stream.Time(*stallMs) * stream.Millisecond,
			LagSLO:      stream.Time(*lagSLO) * stream.Millisecond,
		})
		// The probe reads the sampler's last gauge values, never the
		// operator itself: PJoin's counters belong to its own goroutine,
		// the gauges are published through the mutex-guarded Live.
		p.Watch(d, 50*time.Millisecond, func() health.Progress {
			vals, _ := live.LastValues()
			return health.Progress{
				//pjoin:allow opcontract the health probe compares live wall progress against gauges; it never feeds operators
				Now:       stream.Time(time.Since(start)),
				TuplesIn:  int64(vals["join.tuples_in"]),
				TuplesOut: int64(vals["join.tuples_out"]),
				PunctsOut: int64(vals["join.puncts_out"]),
				PunctLag:  stream.Time(vals["join.punct_lag_ms"] * float64(stream.Millisecond)),
			}
		}, func(r health.Report) {
			log.Printf("auctiond: health: %s", r.String())
			if err := health.DumpToFile(*flight, r, ring, join.Latencies()); err != nil {
				log.Printf("auctiond: flight dump: %v", err)
				return
			}
			log.Printf("auctiond: flight record written to %s", *flight)
		})
	}

	if err := p.Run(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	if spans != nil {
		if err := spans.Flush(); err != nil {
			log.Printf("auctiond: trace flush: %v", err)
		}
		if err := spanSink.Close(); err != nil {
			log.Printf("auctiond: trace close: %v", err)
		}
		fmt.Printf("trace:    %d spans (%d tuples sampled, %d passed over) -> %s\n",
			spans.Events(), sampler.Sampled(), sampler.Dropped(), *tracePth)
	}

	if *verbose {
		for _, t := range sink.Tuples() {
			fmt.Printf("  item %4d total %7.1f\n", t.Values[0].IntVal(), t.Values[1].FloatVal())
		}
	}
	m := join.Metrics()
	fmt.Printf("ran in %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("join:     results=%d purged=%d dropped-on-fly=%d state-at-end=%d\n",
		m.TuplesOut, m.Purged, m.DroppedOnFly, join.StateTuples())
	fmt.Printf("group-by: %d rows (%d emitted early), %d punctuations forwarded\n",
		len(sink.Tuples()), gb.EarlyEmitted(), len(sink.Puncts()))
}
