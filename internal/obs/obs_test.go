package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
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
		"punct_in": "punct_arrive", "propagate": "punct_emit",
		"disk_pass": "pass_end", "disk_chunk": "pass_chunk", "probe": "tuple_probe",
		"purge": "purge_run", "relocate": "relocate", "spill_error": "spill_error",
		"op_start": "op_start", "op_finish": "op_finish",
		"tuple_in": "tuple_probe",
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
		case "tuple_in", "probe":
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
	in.Derive("x\"join").SpillError(5, -1, errors.New(`disk "gone"`))
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
		Sp   string `json:"sp"`
		Tr   uint64 `json:"tr"`
		TNs  int64  `json:"t_ns"`
		WNs  int64  `json:"w_ns"`
		Op   string `json:"op"`
		Side *int   `json:"side"`
		N    int64  `json:"n"`
		M    int64  `json:"m"`
		Err  string `json:"err"`
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
	r = rec{}
	if err := json.Unmarshal([]byte(lines[2]), &r); err != nil {
		t.Fatalf("line 2 not JSON: %v (%s)", err, lines[2])
	}
	if r.Sp != "tuple_probe" || r.Tr != 7 || r.N != 0 || r.WNs != 0 {
		t.Errorf("line 2 = %+v", r)
	}
	// And the one decoder reads back what the handle stamped.
	for i, want := range []span.Span{
		{Kind: span.KindPurgeRun, At: 120 * stream.Millisecond, Op: "pjoin", Side: 1, N: 42, M: 900},
		{Kind: span.KindSpillError, At: 5, Op: `x"join`, Side: -1, Err: `disk "gone"`},
		{Kind: span.KindTupleProbe, Trace: 7, Op: "pjoin", Side: 0},
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
	if in.Derive("child") != nil {
		t.Error("Derive on nil should be nil")
	}
	if in.Op() != "" || in.Board() != nil {
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
	sh := in.Derive("source")
	sh.Span(span.KindPurgeRun, 0, 9, 0, 10, 20, 0, 0)
	sh.SpillError(11, 1, errors.New("boom"))
	sh.SpillError(11, 1, nil) // nil error is dropped
	evs := r.Spans()
	if len(evs) != 3 {
		t.Fatalf("got %d spans", len(evs))
	}
	if evs[0].Op != "pjoin" || evs[0].Side != 1 || evs[0].N != 3 || evs[0].Trace != 5 {
		t.Errorf("sp0 = %+v", evs[0])
	}
	if evs[1].Op != "source" || evs[1].M != 20 {
		t.Errorf("sp1 = %+v", evs[1])
	}
	if evs[2].Kind != span.KindSpillError || evs[2].Err != "boom" || evs[2].Op != "source" || evs[2].Trace != 0 {
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

// TestLiveSampling: a board is due at its first tick and then once per
// period of virtual time; it hands out the last published snapshot, a
// copy its publisher may go on filling.
func TestLiveSampling(t *testing.T) {
	b := NewBoard(10 * stream.Millisecond)
	var due []stream.Time
	var g Gauges
	for _, now := range []stream.Time{0, 3 * stream.Millisecond, 12 * stream.Millisecond, 15 * stream.Millisecond, 22 * stream.Millisecond} {
		if !b.Due(now) {
			continue
		}
		due = append(due, now)
		g.At, g.MemBytesA = now, int64(now)
		b.Publish(&g)
	}
	if want := []stream.Time{0, 12 * stream.Millisecond, 22 * stream.Millisecond}; !reflect.DeepEqual(due, want) {
		t.Errorf("due at %v, want %v", due, want)
	}
	g.MemBytesA = -1 // the publisher's own copy
	if got := b.Gauges(); got.At != 22*stream.Millisecond || got.MemBytesA != int64(22*stream.Millisecond) {
		t.Errorf("board holds %+v", got)
	}
	var none *Board
	if none.Due(0) || none.Gauges() != (Gauges{}) {
		t.Error("a nil board is not inert")
	}
}

// TestBoardRetentionBounded: an hour of a 10 ms tick, 360,000 fills of
// every gauge, leaves the board's heap where it was — a long run must
// not grow with its gauges (a board that kept every fill holds ~57 MB
// here).
func TestBoardRetentionBounded(t *testing.T) {
	const ticks, bound = 360_000, 64 << 10
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	b := NewBoard(10 * stream.Millisecond)
	g := Gauges{Op: "join", Punct: true}
	for i := 0; i < ticks; i++ {
		now := stream.Time(i) * 10 * stream.Millisecond
		if !b.Due(now) {
			t.Fatalf("tick %d not due", i)
		}
		v := int64(i)
		g.At = now
		g.MemBytesA, g.MemBytesB, g.StateBytesA, g.StateBytesB = v, v, v, v
		g.DiskBytes, g.StateTuples, g.BucketSkew, g.MemGroups = v, v, float64(v), v
		g.TuplesOut, g.TuplesIn, g.PunctLag = v, v, stream.Time(v)
		g.PunctSetA, g.PunctSetB, g.PunctsOut = v, v, v
		b.Publish(&g)
	}
	after := heap()
	if got := b.Gauges(); got.PunctsOut != ticks-1 {
		t.Fatalf("board holds %+v, want the last fill", got)
	}
	if after > before && after-before > bound {
		t.Errorf("an hour of ticks kept %d bytes of heap, want under %d", after-before, bound)
	}
	runtime.KeepAlive(b)
}
