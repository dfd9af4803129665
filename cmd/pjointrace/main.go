// Command pjointrace is the offline analyzer for span traces
// (internal/obs/span), whoever wrote them: auctiond -trace, pjoinbench
// -trace, or a flight dump's ring. It reads one or more JSONL trace
// files — gzip-compressed and/or truncated mid-trailer (crashed runs)
// are fine — reconstructs every punctuation lifecycle, sampled tuple
// path and disk pass, and prints:
//
//   - a per-punctuation report: state reclaimed (memory/disk/on-the-fly,
//     tuples and bytes), purge wall time (deduplicated across the spans
//     of one purge run), deferral reasons, and the propagation-delay
//     distribution;
//   - a critical-path summary for sampled tuples: batch linger, queue +
//     restamp delay, probe work, and result latency;
//   - a disk-pass summary: chunked vs drained, candidate pairs,
//     spill I/O;
//   - with -flight, a stall root-cause table cross-referencing a
//     flight-recorder dump (internal/obs/health): which passes were in
//     flight, which punctuations were unpropagated, how much purge
//     work fell inside the stall window, and any spill errors; with no
//     trace file the dump's own ring spans are what is analyzed;
//   - lifecycle hygiene: orphaned (no arrive) and unclosed (no
//     emit/eos_close) punctuation traces, and incomplete pass traces.
//
// Usage:
//
//	pjointrace trace.jsonl.gz
//	pjointrace -flight flight.jsonl.gz -top 5 trace.jsonl
//	pjointrace -flight flight.jsonl.gz      # the dump alone
//	pjointrace -strict trace.jsonl   # exit 2 on orphans/unclosed traces
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/stream"
)

func main() {
	var (
		flight = flag.String("flight", "", "flight-recorder dump (internal/obs/health) to cross-reference for stall root causes")
		top    = flag.Int("top", 10, "rows in the top-punctuations table")
		strict = flag.Bool("strict", false, "exit 2 if any lifecycle is orphaned, unclosed or incomplete")
	)
	flag.Parse()
	paths := flag.Args()
	if len(paths) == 0 && *flight != "" {
		paths = []string{*flight}
	}
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: pjointrace [-flight dump.jsonl] [-top N] [-strict] trace.jsonl[.gz] ...")
		os.Exit(1)
	}
	problems, err := analyze(os.Stdout, paths, *flight, *top)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pjointrace: %v\n", err)
		os.Exit(1)
	}
	if *strict && problems > 0 {
		fmt.Fprintf(os.Stderr, "pjointrace: %d lifecycle problem(s)\n", problems)
		os.Exit(2)
	}
}

// punctLife is one reconstructed punctuation lifecycle.
type punctLife struct {
	trace     uint64
	op        string
	pid       int64
	arrives   int
	arriveAt  stream.Time
	lastAt    stream.Time
	memFreed  int64 // punct_purge_mem N
	parked    int64 // punct_purge_mem M + punct_drop_fly M
	diskFreed int64 // punct_purge_disk N
	flyFreed  int64 // punct_drop_fly N
	bytes     int64 // B over all purge/drop spans
	purgeWall int64 // deduplicated purge-run wall ns
	runs      map[purgeRun]struct{}
	defers    int
	deferDisk int // reason 1: a disk pass in flight
	deferOwn  int // reason 2: own disk purge pending
	emitted   bool
	eosClosed bool
	emitDelay int64 // join-wide emit D (stream-time propagation delay)
	orphan    bool  // punct spans but no arrive
}

// purgeRun identifies one purge run; its spans (one per attributed
// punctuation) share a wall duration that must be counted once.
type purgeRun struct {
	at   stream.Time
	side int8
	d    int64
}

// tupleLife is one sampled tuple's reconstructed path.
type tupleLife struct {
	trace                      uint64
	hasIngest, hasCut, hasDel  bool
	ingestAt, cutAt, deliverAt stream.Time
	batchLen                   int64
	forcedCut                  bool
	restampNs                  int64 // deliver D: queue + batch linger
	probes                     int
	matches, examined          int64
	results                    int
	resultLat                  []int64
}

// passLife is one disk-join pass.
type passLife struct {
	trace             uint64
	started, ended    bool
	chunked           bool
	startAt, endAt    stream.Time
	chunks            int
	examined, results int64
	readOps           int64
	bytes             int64
	wall              int64
}

// timedEvent is a purge run or deferral pinned to the virtual clock,
// kept globally for the stall-window correlation.
type timedEvent struct {
	at     stream.Time
	n, b   int64
	wall   int64
	reason int64
}

type analysis struct {
	files     int
	spans     int64
	skipped   int64
	kinds     []int64
	puncts    map[uint64]*punctLife
	tuples    map[uint64]*tupleLife
	passes    map[uint64]*passLife
	purgeRuns map[purgeRun]*timedEvent
	deferList []timedEvent
	spillErrs []span.Span
	traceless int64
	// closed sums the closed_drop spans (drops against a retired key, no
	// lifecycle to charge); the reclaimed line adds them in, so it sums
	// to the join's DroppedOnFly + Purged.
	closed struct{ fly, disk, parked, bytes int64 }
}

func newAnalysis() *analysis {
	return &analysis{
		kinds:     make([]int64, span.NumKinds()),
		puncts:    map[uint64]*punctLife{},
		tuples:    map[uint64]*tupleLife{},
		passes:    map[uint64]*passLife{},
		purgeRuns: map[purgeRun]*timedEvent{},
	}
}

func (a *analysis) punct(s span.Span) *punctLife {
	p := a.puncts[s.Trace]
	if p == nil {
		p = &punctLife{trace: s.Trace, arriveAt: s.At, runs: map[purgeRun]struct{}{}}
		a.puncts[s.Trace] = p
	}
	if s.Op != "" && p.op == "" {
		p.op = s.Op
	}
	if s.At > p.lastAt {
		p.lastAt = s.At
	}
	return p
}

func (a *analysis) add(s span.Span) {
	a.spans++
	a.kinds[s.Kind]++
	if s.Kind.IsPoint() {
		// Complete on its own: Trace 0 by design, never an orphan.
		switch s.Kind {
		case span.KindSpillError:
			a.spillErrs = append(a.spillErrs, s)
		case span.KindClosedDrop:
			a.closed.fly += s.N
			a.closed.disk += s.M
			if s.N == 0 && s.M == 0 {
				a.closed.parked++
			} else {
				a.closed.bytes += s.B
			}
		}
		return
	}
	if s.Trace == 0 {
		a.traceless++
		return
	}
	switch s.Kind {
	case span.KindPunctArrive:
		p := a.punct(s)
		if p.arrives == 0 || s.At < p.arriveAt {
			p.arriveAt = s.At
		}
		p.arrives++
		if s.N > p.pid {
			p.pid = s.N
		}
	case span.KindPunctPurgeMem:
		p := a.punct(s)
		p.memFreed += s.N
		p.parked += s.M
		p.bytes += s.B
		run := purgeRun{at: s.At, side: s.Side, d: s.D}
		if _, seen := p.runs[run]; !seen {
			p.runs[run] = struct{}{}
			p.purgeWall += s.D
		}
		if g := a.purgeRuns[run]; g != nil {
			g.n += s.N
			g.b += s.B
		} else {
			a.purgeRuns[run] = &timedEvent{at: s.At, n: s.N, b: s.B, wall: s.D}
		}
	case span.KindPunctDropFly:
		p := a.punct(s)
		p.flyFreed += s.N
		p.parked += s.M
		p.bytes += s.B
	case span.KindPunctPurgeDisk:
		p := a.punct(s)
		p.diskFreed += s.N
		p.bytes += s.B
	case span.KindPunctDefer:
		p := a.punct(s)
		p.defers++
		switch s.M {
		case 1:
			p.deferDisk++
		case 2:
			p.deferOwn++
		}
		a.deferList = append(a.deferList, timedEvent{at: s.At, reason: s.M})
	case span.KindPunctEmit:
		p := a.punct(s)
		p.emitted = true
		if s.D > p.emitDelay {
			p.emitDelay = s.D
		}
	case span.KindPunctEOSClose:
		a.punct(s).eosClosed = true

	case span.KindPassStart:
		ps := a.pass(s)
		ps.started, ps.chunked, ps.startAt = true, s.N == 1, s.At
	case span.KindPassChunk:
		ps := a.pass(s)
		ps.chunks++
	case span.KindPassIO:
		ps := a.pass(s)
		ps.readOps += s.N
	case span.KindPassEnd:
		ps := a.pass(s)
		ps.ended, ps.endAt = true, s.At
		ps.examined, ps.results, ps.bytes, ps.wall = s.N, s.M, s.B, s.D

	case span.KindTupleIngest:
		t := a.tuple(s)
		t.hasIngest, t.ingestAt = true, s.At
	case span.KindTupleCut:
		t := a.tuple(s)
		if !t.hasCut {
			t.hasCut, t.cutAt, t.batchLen, t.forcedCut = true, s.At, s.N, s.M != 0
		}
	case span.KindTupleDeliver:
		t := a.tuple(s)
		if !t.hasDel {
			t.hasDel, t.deliverAt, t.restampNs = true, s.At, s.D
		}
	case span.KindTupleProbe:
		t := a.tuple(s)
		t.probes++
		t.matches += s.N
		t.examined += s.M
	case span.KindTupleResult:
		t := a.tuple(s)
		t.results++
		t.resultLat = append(t.resultLat, s.D)
	}
}

func (a *analysis) pass(s span.Span) *passLife {
	p := a.passes[s.Trace]
	if p == nil {
		p = &passLife{trace: s.Trace}
		a.passes[s.Trace] = p
	}
	return p
}

func (a *analysis) tuple(s span.Span) *tupleLife {
	t := a.tuples[s.Trace]
	if t == nil {
		t = &tupleLife{trace: s.Trace}
		a.tuples[s.Trace] = t
	}
	return t
}

func (a *analysis) readFile(path string) error {
	r, err := obs.OpenSinkTolerant(path)
	if err != nil {
		return err
	}
	defer r.Close()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		s, ok, err := span.ParseLine(sc.Bytes())
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if !ok {
			if len(strings.TrimSpace(sc.Text())) > 0 {
				a.skipped++
			}
			continue
		}
		a.add(s)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	a.files++
	return nil
}

// flightDump is the decoded header + histogram summaries of a
// flight-recorder bundle (internal/obs/health Dump format).
type flightDump struct {
	Reason    string `json:"reason"`
	AtNs      int64  `json:"at_ns"`
	WindowNs  int64  `json:"window_ns"`
	LagNs     int64  `json:"lag_ns"`
	TuplesIn  int64  `json:"tuples_in"`
	TuplesOut int64  `json:"tuples_out"`
	PunctsOut int64  `json:"puncts_out"`
	Events    int    `json:"events"`

	hists []flightHist
	ring  int
}

type flightHist struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	Max   int64  `json:"max"`
	P50   int64  `json:"p50"`
	P95   int64  `json:"p95"`
	P99   int64  `json:"p99"`
}

func readFlight(path string) (*flightDump, error) {
	r, err := obs.OpenSinkTolerant(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var d *flightDump
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, `{"type":"flight"`):
			d = &flightDump{}
			if err := json.Unmarshal([]byte(line), d); err != nil {
				return nil, fmt.Errorf("%s: flight header: %w", path, err)
			}
		case strings.HasPrefix(line, `{"type":"hist"`):
			if d == nil {
				continue
			}
			var h flightHist
			if err := json.Unmarshal([]byte(line), &h); err != nil {
				return nil, fmt.Errorf("%s: hist line: %w", path, err)
			}
			d.hists = append(d.hists, h)
		case strings.HasPrefix(line, `{"sp":`):
			if d != nil {
				d.ring++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d == nil {
		return nil, fmt.Errorf("%s: no flight header line", path)
	}
	return d, nil
}

// fmtMs renders a nanosecond quantity (virtual or wall) as
// milliseconds. Deterministic: all inputs come from the trace.
func fmtMs(ns int64) string { return fmt.Sprintf("%.3fms", float64(ns)/1e6) }

// fmtHist renders one value of the obs.Hists row with the given wire
// name: a duration when the name carries the unit (_ns), a plain count
// otherwise (batch_fill).
func fmtHist(name string, v int64) string {
	if strings.HasSuffix(name, "_ns") {
		return fmtMs(v)
	}
	return fmt.Sprint(v)
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// dist is a sorted-sample summary: p50/p95/max over exact values.
type dist struct{ vs []int64 }

func (d *dist) add(v int64) { d.vs = append(d.vs, v) }
func (d *dist) count() int  { return len(d.vs) }
func (d *dist) q(p int) int64 {
	if len(d.vs) == 0 {
		return 0
	}
	sort.Slice(d.vs, func(i, j int) bool { return d.vs[i] < d.vs[j] })
	return d.vs[(len(d.vs)-1)*p/100]
}
func (d *dist) String() string {
	if len(d.vs) == 0 {
		return "n/a"
	}
	return fmt.Sprintf("p50 %s  p95 %s  max %s", fmtMs(d.q(50)), fmtMs(d.q(95)), fmtMs(d.q(100)))
}

func analyze(w io.Writer, paths []string, flightPath string, top int) (problems int, err error) {
	a := newAnalysis()
	for _, p := range paths {
		if err := a.readFile(p); err != nil {
			return 0, err
		}
	}
	var fd *flightDump
	if flightPath != "" {
		if fd, err = readFlight(flightPath); err != nil {
			return 0, err
		}
	}

	punctSpans, passSpans, tupleSpans, pointSpans := span.FamilyCounts(a.kinds)
	fmt.Fprintf(w, "pjointrace: %d file(s): %d spans (punct %d, pass %d, tuple %d, point %d), %d foreign line(s) skipped\n",
		a.files, a.spans, punctSpans, passSpans, tupleSpans, pointSpans, a.skipped)

	// --- punctuation lifecycles -------------------------------------
	lives := make([]*punctLife, 0, len(a.puncts))
	for _, p := range a.puncts {
		p.orphan = p.arrives == 0
		lives = append(lives, p)
	}
	sort.Slice(lives, func(i, j int) bool {
		if lives[i].arriveAt != lives[j].arriveAt {
			return lives[i].arriveAt < lives[j].arriveAt
		}
		return lives[i].trace < lives[j].trace
	})
	var (
		emitted, eosClosed, unclosed, orphans                   int
		memFreed, parked, diskFreed, flyFreed, bytes, purgeWall int64
		totalRuns, defers, deferDisk, deferOwn                  int
		delay                                                   dist
	)
	for _, p := range lives {
		switch {
		case p.orphan:
			orphans++
		case p.emitted:
			emitted++
		case p.eosClosed:
			eosClosed++
		default:
			unclosed++
		}
		memFreed += p.memFreed
		parked += p.parked
		diskFreed += p.diskFreed
		flyFreed += p.flyFreed
		bytes += p.bytes
		purgeWall += p.purgeWall
		totalRuns += len(p.runs)
		defers += p.defers
		deferDisk += p.deferDisk
		deferOwn += p.deferOwn
		if p.emitted && p.emitDelay > 0 {
			delay.add(p.emitDelay)
		}
	}
	fmt.Fprintf(w, "\n== punctuation lifecycles ==\n")
	fmt.Fprintf(w, " traces %d: emitted %d, eos-closed %d, unclosed %d, orphaned %d\n",
		len(lives), emitted, eosClosed, unclosed, orphans)
	fmt.Fprintf(w, " reclaimed: memory %d tuples, disk %d tuples, on-the-fly %d tuples, %s total; %d parked for disk purge\n",
		memFreed, diskFreed+a.closed.disk, flyFreed+a.closed.fly, fmtBytes(bytes+a.closed.bytes), parked+a.closed.parked)
	fmt.Fprintf(w, " purge wall: %s over %d run(s)\n", fmtMs(purgeWall), totalRuns)
	fmt.Fprintf(w, " propagation delay (%d join-wide emits): %s\n", delay.count(), delay.String())
	fmt.Fprintf(w, " deferrals: %d (disk pass in flight %d, own disk purge pending %d)\n",
		defers, deferDisk, deferOwn)

	byBytes := append([]*punctLife(nil), lives...)
	sort.Slice(byBytes, func(i, j int) bool {
		if byBytes[i].bytes != byBytes[j].bytes {
			return byBytes[i].bytes > byBytes[j].bytes
		}
		return byBytes[i].trace < byBytes[j].trace
	})
	if top > len(byBytes) {
		top = len(byBytes)
	}
	if top > 0 {
		fmt.Fprintf(w, "\n top %d by bytes reclaimed:\n", top)
		fmt.Fprintf(w, "  %-8s %-7s %-4s %-10s %-10s %-10s %5s %5s %4s %5s %9s %10s %10s\n",
			"trace", "op", "pid", "arrive", "end", "status", "mem", "disk", "fly", "park", "bytes", "purge-wall", "delay")
		for _, p := range byBytes[:top] {
			status := "unclosed"
			switch {
			case p.orphan:
				status = "ORPHAN"
			case p.emitted:
				status = "emitted"
			case p.eosClosed:
				status = "eos-closed"
			}
			delayS := "-"
			if p.emitted && p.emitDelay > 0 {
				delayS = fmtMs(p.emitDelay)
			}
			fmt.Fprintf(w, "  %-8d %-7s %-4d %-10s %-10s %-10s %5d %5d %4d %5d %9s %10s %10s\n",
				p.trace, p.op, p.pid, fmtMs(int64(p.arriveAt)), fmtMs(int64(p.lastAt)), status,
				p.memFreed, p.diskFreed, p.flyFreed, p.parked, fmtBytes(p.bytes),
				fmtMs(p.purgeWall), delayS)
		}
	}
	for _, p := range lives {
		if p.orphan {
			fmt.Fprintf(w, " ORPHAN: trace %d has punctuation spans but no arrive span (first seen %s)\n",
				p.trace, fmtMs(int64(p.arriveAt)))
		} else if !p.emitted && !p.eosClosed {
			fmt.Fprintf(w, " UNCLOSED: trace %d arrived %s, last span %s, never emitted or eos-closed\n",
				p.trace, fmtMs(int64(p.arriveAt)), fmtMs(int64(p.lastAt)))
		}
	}
	problems += orphans + unclosed

	// --- sampled tuples ---------------------------------------------
	tls := make([]*tupleLife, 0, len(a.tuples))
	for _, t := range a.tuples {
		tls = append(tls, t)
	}
	sort.Slice(tls, func(i, j int) bool { return tls[i].trace < tls[j].trace })
	var (
		linger, restamp, resLat        dist
		forced, fills                  int
		matches, examined, batchLenSum int64
		results, withCut               int
	)
	for _, t := range tls {
		if t.hasIngest && t.hasCut {
			linger.add(int64(t.cutAt) - int64(t.ingestAt))
			withCut++
			batchLenSum += t.batchLen
			if t.forcedCut {
				forced++
			} else {
				fills++
			}
		}
		if t.hasDel {
			restamp.add(t.restampNs)
		}
		matches += t.matches
		examined += t.examined
		results += t.results
		for _, d := range t.resultLat {
			resLat.add(d)
		}
	}
	fmt.Fprintf(w, "\n== sampled tuples ==\n")
	fmt.Fprintf(w, " traces %d, results %d\n", len(tls), results)
	if len(tls) > 0 {
		if withCut > 0 {
			fmt.Fprintf(w, " batch: mean fill %.1f, cuts forced %d / filled %d\n",
				float64(batchLenSum)/float64(withCut), forced, fills)
			fmt.Fprintf(w, " linger (ingest->cut):      %s\n", linger.String())
		}
		fmt.Fprintf(w, " queue+linger (restamp):    %s\n", restamp.String())
		if matches > 0 || examined > 0 {
			denom := float64(len(tls))
			fmt.Fprintf(w, " probe work: %.1f matches, %.1f examined per sampled tuple\n",
				float64(matches)/denom, float64(examined)/denom)
		}
		fmt.Fprintf(w, " result latency:            %s\n", resLat.String())
	}

	// --- disk passes ------------------------------------------------
	pls := make([]*passLife, 0, len(a.passes))
	for _, p := range a.passes {
		pls = append(pls, p)
	}
	sort.Slice(pls, func(i, j int) bool { return pls[i].trace < pls[j].trace })
	var (
		chunked, drained, chunks, incomplete int
		pExamined, pResults, readOps, ioB    int64
		passWall                             dist
	)
	for _, p := range pls {
		if !p.started || !p.ended {
			incomplete++
			continue
		}
		if p.chunked {
			chunked++
		} else {
			drained++
		}
		chunks += p.chunks
		pExamined += p.examined
		pResults += p.results
		readOps += p.readOps
		ioB += p.bytes
		passWall.add(p.wall)
	}
	fmt.Fprintf(w, "\n== disk passes ==\n")
	fmt.Fprintf(w, " passes %d (chunked %d, drained %d, incomplete %d), %d chunk step(s)\n",
		len(pls), chunked, drained, incomplete, chunks)
	if chunked+drained > 0 {
		fmt.Fprintf(w, " examined %d candidate pair(s), %d result(s); %d read op(s), %s read\n",
			pExamined, pResults, readOps, fmtBytes(ioB))
		fmt.Fprintf(w, " pass wall: %s\n", passWall.String())
	}
	problems += incomplete

	if a.traceless > 0 {
		fmt.Fprintf(w, "\n %d TRACELESS span(s): records that cannot be attributed to any lifecycle\n", a.traceless)
		problems += int(a.traceless)
	}

	// --- stall root cause -------------------------------------------
	if fd != nil {
		winStart := stream.Time(fd.AtNs - fd.WindowNs)
		at := stream.Time(fd.AtNs)
		fmt.Fprintf(w, "\n== stall root cause (flight: reason=%s at=%s lag=%s window=[%s, %s]) ==\n",
			fd.Reason, fmtMs(fd.AtNs), fmtMs(fd.LagNs), fmtMs(int64(winStart)), fmtMs(fd.AtNs))
		fmt.Fprintf(w, " recorder: tuples in %d / out %d, puncts out %d, %d ring span(s)\n",
			fd.TuplesIn, fd.TuplesOut, fd.PunctsOut, fd.ring)

		openPasses := 0
		for _, p := range pls {
			if p.started && p.startAt <= at && (!p.ended || p.endAt >= winStart) {
				state := "completed in window"
				if !p.ended || p.endAt > at {
					state = "OPEN at stall"
				}
				kind := "drained"
				if p.chunked {
					kind = "chunked"
				}
				fmt.Fprintf(w, " disk pass: trace %d (%s) started %s, %s — %d chunk step(s), %s read\n",
					p.trace, kind, fmtMs(int64(p.startAt)), state, p.chunks, fmtBytes(p.bytes))
				openPasses++
			}
		}
		openPuncts := 0
		var oldest *punctLife
		for _, p := range lives {
			if p.orphan || p.arriveAt > at {
				continue
			}
			closedBefore := (p.emitted || p.eosClosed) && p.lastAt <= at
			if !closedBefore {
				openPuncts++
				if oldest == nil || p.arriveAt < oldest.arriveAt {
					oldest = p
				}
			}
		}
		if openPuncts > 0 {
			fmt.Fprintf(w, " unpropagated punctuations at stall: %d; oldest trace %d arrived %s (age %s)\n",
				openPuncts, oldest.trace, fmtMs(int64(oldest.arriveAt)), fmtMs(fd.AtNs-int64(oldest.arriveAt)))
		}
		var wRuns int
		var wWall, wFreed, wBytes int64
		runKeys := make([]purgeRun, 0, len(a.purgeRuns))
		for k := range a.purgeRuns {
			runKeys = append(runKeys, k)
		}
		sort.Slice(runKeys, func(i, j int) bool { return runKeys[i].at < runKeys[j].at })
		for _, k := range runKeys {
			if k.at >= winStart && k.at <= at {
				g := a.purgeRuns[k]
				wRuns++
				wWall += g.wall
				wFreed += g.n
				wBytes += g.b
			}
		}
		if wRuns > 0 {
			fmt.Fprintf(w, " purge work in window: %d run(s), %s wall, %d tuple(s) freed, %s reclaimed\n",
				wRuns, fmtMs(wWall), wFreed, fmtBytes(wBytes))
		}
		var wDefer, wDeferDisk, wDeferOwn int
		for _, d := range a.deferList {
			if d.at >= winStart && d.at <= at {
				wDefer++
				switch d.reason {
				case 1:
					wDeferDisk++
				case 2:
					wDeferOwn++
				}
			}
		}
		if wDefer > 0 {
			fmt.Fprintf(w, " deferrals in window: %d (disk pass in flight %d, own disk purge pending %d)\n",
				wDefer, wDeferDisk, wDeferOwn)
		}
		if n := len(a.spillErrs); n > 0 {
			first := a.spillErrs[0]
			fmt.Fprintf(w, " spill errors: %d; first at %s (%s side %d): %s\n",
				n, fmtMs(int64(first.At)), first.Op, first.Side, first.Err)
		}
		if openPasses == 0 && openPuncts == 0 && wRuns == 0 && wDefer == 0 && len(a.spillErrs) == 0 {
			fmt.Fprintf(w, " no purge, pass, punctuation or spill-error activity overlaps the stall window in this trace\n")
		}
		// In the histogram table's order; a dump from before the table
		// holds fewer of them.
		for _, d := range obs.Hists {
			for _, h := range fd.hists {
				if h.Name == d.Name {
					fmt.Fprintf(w, " hist %-20s count %-8d p50 %-10s p95 %-10s p99 %-10s max %s\n",
						h.Name, h.Count, fmtHist(h.Name, h.P50), fmtHist(h.Name, h.P95), fmtHist(h.Name, h.P99), fmtHist(h.Name, h.Max))
				}
			}
		}
	}
	return problems, nil
}
