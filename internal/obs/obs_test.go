package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"pjoin/internal/obs/span"
	"pjoin/internal/stream"
)

// TestKindStrings asserts the one kind table: every kind has a wire
// name, the names are distinct, and each of the 13 event kinds this
// package used to carry has its one disposition — a span kind that now
// records it, or none because the tuple-granularity record it was
// follows the sampler.
func TestKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := span.Kind(0); int(k) < span.NumKinds(); k++ {
		if k.String() == "" || k.String() == "unknown" || seen[k.String()] {
			t.Errorf("kind %d has no name of its own (%q)", k, k.String())
		}
		seen[k.String()] = true
	}
	if span.Kind(200).String() != "unknown" {
		t.Error("out-of-range kind should be unknown")
	}
	for event, kind := range map[string]string{
		"punct_in": "punct_arrive", "propagate": "punct_emit", "shard_merge": "punct_emit",
		"disk_pass": "pass_end", "disk_chunk": "pass_chunk", "probe": "tuple_probe",
		"purge": "purge_run", "relocate": "relocate", "spill_error": "spill_error",
		"op_start": "op_start", "op_finish": "op_finish",
		"shard_route": "tuple_route", "tuple_in": "tuple_probe",
	} {
		k, ok := span.ParseKind(kind)
		if !ok {
			t.Errorf("event %s: no span kind %q", event, kind)
			continue
		}
		switch event {
		case "purge", "relocate", "spill_error", "op_start", "op_finish":
			if !k.IsPoint() {
				t.Errorf("event %s -> %s should be a point kind", event, kind)
			}
		case "shard_route", "tuple_in", "probe":
			if !k.IsTuple() {
				t.Errorf("event %s -> %s should follow the sampler (tuple family)", event, kind)
			}
		}
	}
}

// TestJSONLRoundTrip drives the one trace path end to end: Instr.Span /
// SpillError -> span.JSONL -> span.ParseLine, with encoding/json as a
// second opinion on every line.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := span.NewJSONL(&buf)
	in := NewInstr(j, nil, "pjoin")
	in.Span(span.KindPurgeRun, 0, 120*stream.Millisecond, 1, 42, 900, 0, 0)
	in.Derive("x\"join", 3).SpillError(5, -1, errors.New(`disk "gone"`))
	in.Span(span.KindTupleProbe, 7, 0, 0, 0, 0, 0, 0)
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if j.Events() != 3 {
		t.Errorf("Events = %d", j.Events())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	// Every line must be valid JSON that encoding/json agrees with.
	type rec struct {
		Sp    string `json:"sp"`
		Tr    uint64 `json:"tr"`
		TNs   int64  `json:"t_ns"`
		WNs   int64  `json:"w_ns"`
		Op    string `json:"op"`
		Shard *int   `json:"shard"`
		Side  *int   `json:"side"`
		N     int64  `json:"n"`
		M     int64  `json:"m"`
		Err   string `json:"err"`
	}
	var r rec
	if err := json.Unmarshal([]byte(lines[0]), &r); err != nil {
		t.Fatalf("line 0 not JSON: %v (%s)", err, lines[0])
	}
	if r.Sp != "purge_run" || r.Tr != 0 || r.TNs != int64(120*stream.Millisecond) || r.Op != "pjoin" || r.N != 42 || r.M != 900 {
		t.Errorf("line 0 = %+v", r)
	}
	if r.WNs == 0 {
		t.Error("a point span carries the wall clock")
	}
	if r.Shard != nil {
		t.Error("shard -1 should be omitted")
	}
	if r.Side == nil || *r.Side != 1 {
		t.Error("side 1 should be present")
	}
	r = rec{}
	if err := json.Unmarshal([]byte(lines[1]), &r); err != nil {
		t.Fatalf("line 1 not JSON: %v (%s)", err, lines[1])
	}
	if r.Sp != "spill_error" || r.Op != `x"join` || r.Err != `disk "gone"` || r.Side != nil {
		t.Errorf("line 1 = %+v", r)
	}
	if r.Shard == nil || *r.Shard != 3 {
		t.Error("shard 3 should be present")
	}
	r = rec{}
	if err := json.Unmarshal([]byte(lines[2]), &r); err != nil {
		t.Fatalf("line 2 not JSON: %v (%s)", err, lines[2])
	}
	if r.Sp != "tuple_probe" || r.Tr != 7 || r.N != 0 || r.WNs != 0 {
		t.Errorf("line 2 = %+v", r)
	}
	// And the one decoder reads back what the handle stamped.
	for i, want := range []span.Span{
		{Kind: span.KindPurgeRun, At: 120 * stream.Millisecond, Op: "pjoin", Shard: -1, Side: 1, N: 42, M: 900},
		{Kind: span.KindSpillError, At: 5, Op: `x"join`, Shard: 3, Side: -1, Err: `disk "gone"`},
		{Kind: span.KindTupleProbe, Trace: 7, Op: "pjoin", Shard: -1, Side: 0},
	} {
		got, ok, err := span.ParseLine([]byte(lines[i]))
		if err != nil || !ok {
			t.Fatalf("line %d: ParseLine ok=%v err=%v", i, ok, err)
		}
		if got.ID == 0 {
			t.Errorf("line %d: no span ID", i)
		}
		got.ID, got.Wall = 0, 0
		if got != want {
			t.Errorf("line %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// failWriter fails after n bytes.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("sink full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestJSONLSurfacesWriteError(t *testing.T) {
	j := span.NewJSONL(&failWriter{n: 8})
	in := NewInstr(j, nil, "pjoin")
	for i := 0; i < 10000; i++ {
		in.Span(span.KindTupleProbe, 1, stream.Time(i), -1, 0, 0, 0, 0)
	}
	if err := j.Flush(); err == nil {
		t.Fatal("Flush should report the sink error")
	}
	if j.Events() >= 10000 {
		t.Errorf("Events = %d counts spans the sink refused", j.Events())
	}
}

func TestRecorderCounts(t *testing.T) {
	r := &span.Recorder{}
	r.Emit(span.Span{Kind: span.KindPurgeRun})
	r.Emit(span.Span{Kind: span.KindPurgeRun})
	r.Emit(span.Span{Kind: span.KindPunctEmit})
	if r.Count(span.KindPurgeRun) != 2 || r.Count(span.KindPunctEmit) != 1 || r.Count(span.KindPassEnd) != 0 {
		t.Errorf("counts wrong: %+v", r.Spans())
	}
	if len(r.Spans()) != 3 {
		t.Errorf("Spans = %d", len(r.Spans()))
	}
}

func TestInstrNilSafe(t *testing.T) {
	var in *Instr
	if in.Enabled() {
		t.Error("nil Instr reports enabled")
	}
	in.Span(span.KindPurgeRun, 0, 0, 0, 1, 2, 0, 0)
	in.SpillError(0, 0, errors.New("x"))
	in.Tick(0)
	if in.Derive("child", 2) != nil {
		t.Error("Derive on nil should be nil")
	}
	if in.WithoutLive() != nil {
		t.Error("WithoutLive on nil should be nil")
	}
	if in.Op() != "" || in.Live() != nil {
		t.Error("nil accessors")
	}
	if NewInstr(nil, nil, "x") != nil {
		t.Error("NewInstr(nil, nil) should be nil")
	}
}

func TestInstrIdentityStamping(t *testing.T) {
	r := &span.Recorder{}
	in := NewInstr(r, nil, "pjoin")
	in.Span(span.KindTupleProbe, 5, 7, 1, 3, 0, 0, 0)
	sh := in.Derive("pjoin.shard", 4)
	sh.Span(span.KindPurgeRun, 0, 9, 0, 10, 20, 0, 0)
	sh.SpillError(11, 1, errors.New("boom"))
	sh.SpillError(11, 1, nil) // nil error is dropped
	evs := r.Spans()
	if len(evs) != 3 {
		t.Fatalf("got %d spans", len(evs))
	}
	if evs[0].Op != "pjoin" || evs[0].Shard != -1 || evs[0].Side != 1 || evs[0].N != 3 || evs[0].Trace != 5 {
		t.Errorf("sp0 = %+v", evs[0])
	}
	if evs[1].Op != "pjoin.shard" || evs[1].Shard != 4 || evs[1].M != 20 {
		t.Errorf("sp1 = %+v", evs[1])
	}
	if evs[2].Kind != span.KindSpillError || evs[2].Err != "boom" || evs[2].Shard != 4 || evs[2].Trace != 0 {
		t.Errorf("sp2 = %+v", evs[2])
	}
	ids := map[uint64]bool{}
	for _, e := range evs {
		if e.ID == 0 || ids[e.ID] {
			t.Errorf("span ID %d missing or reused", e.ID)
		}
		ids[e.ID] = true
	}
}

func TestWithoutLiveKeepsTracingDropsSampling(t *testing.T) {
	r := &span.Recorder{}
	lv := NewLive(stream.Millisecond)
	in := NewInstr(r, lv, "op")
	bare := in.WithoutLive()
	if bare == nil || bare.Live() != nil {
		t.Fatal("WithoutLive should keep a live-less handle")
	}
	bare.Span(span.KindTupleProbe, 1, 1, 0, 1, 0, 0, 0)
	if r.Count(span.KindTupleProbe) != 1 {
		t.Error("tracing lost")
	}
	// Live-only handle: stripping live leaves nothing worth keeping.
	liveOnly := NewInstr(nil, lv, "op")
	if liveOnly.WithoutLive() != nil {
		t.Error("live-only handle minus live should be nil")
	}
	// No live attached: same handle comes back.
	noLive := NewInstr(r, nil, "op")
	if noLive.WithoutLive() != noLive {
		t.Error("handle without live should be returned unchanged")
	}
}

func TestLiveSampling(t *testing.T) {
	lv := NewLive(10 * stream.Millisecond)
	var state float64
	lv.Register("state_bytes", func() float64 { return state })
	lv.Register("disk_bytes", func() float64 { return state * 2 })

	state = 5
	lv.Tick(0) // first tick samples (deadline starts at 0)
	state = 7
	lv.Tick(3 * stream.Millisecond) // not due
	state = 9
	lv.Tick(12 * stream.Millisecond) // due
	state = 11
	lv.Flush(15 * stream.Millisecond) // forced

	series := lv.Series()
	if len(series) != 2 {
		t.Fatalf("got %d series", len(series))
	}
	// Sorted by name: disk_bytes, state_bytes.
	sb := series[1]
	if sb.Name != "state_bytes" {
		t.Fatalf("series order: %q", sb.Name)
	}
	if sb.Len() != 4 {
		t.Fatalf("points = %d, want 4 (register@0, tick@0, tick@12, flush@15)", sb.Len())
	}
	want := []float64{0, 5, 9, 11}
	for i, w := range want {
		if sb.Points[i].V != w {
			t.Errorf("point %d = %g, want %g", i, sb.Points[i].V, w)
		}
	}
	last, at := lv.LastValues()
	if last["state_bytes"] != 11 || last["disk_bytes"] != 22 {
		t.Errorf("LastValues = %v", last)
	}
	if at != 15*stream.Millisecond {
		t.Errorf("lastAt = %v", at)
	}
}

func TestLiveConcurrentTickSamplesOnce(t *testing.T) {
	lv := NewLive(10 * stream.Millisecond)
	calls := 0
	lv.Register("g", func() float64 { calls++; return 0 })
	if calls != 1 {
		t.Fatalf("registration should sample once, got %d calls", calls)
	}
	calls = 0
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			lv.Tick(5 * stream.Millisecond)
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	lv.mu.Lock()
	got := calls
	lv.mu.Unlock()
	if got != 1 {
		t.Errorf("gauge ran %d times for one due tick", got)
	}
}
