package obs

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pjoin/internal/obs/hist"
	"pjoin/internal/obs/span"
)

func promFixture() (LatSnapshot, map[string]float64) {
	lat := NewLat()
	for i := int64(1); i <= 100; i++ {
		lat.Result.Record(i * 1000)      // 1µs..100µs
		lat.PunctDelay.Record(i * 50000) // 50µs..5ms
	}
	lat.Purge.Record(1 << 20)
	gauges := map[string]float64{
		"state_bytes": 4096,
		"punct-lag":   1.5e6, // needs sanitizing
		"skew":        0.25,
	}
	return lat.Snapshot(), gauges
}

func TestWritePromFormat(t *testing.T) {
	snap, gauges := promFixture()
	var buf bytes.Buffer
	if err := WriteProm(&buf, "pjoin", snap, gauges); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := CheckPromFormat(buf.Bytes()); err != nil {
		t.Fatalf("format check failed: %v\n%s", err, out)
	}
	// The three histogram families and the sanitized gauge are present.
	for _, want := range []string{
		"# TYPE pjoin_result_latency_ns histogram",
		"# TYPE pjoin_punct_delay_ns histogram",
		"# TYPE pjoin_purge_duration_ns histogram",
		`pjoin_result_latency_ns_bucket{le="+Inf"} 100`,
		"pjoin_result_latency_ns_count 100",
		"pjoin_punct_delay_ns_count 100",
		"pjoin_purge_duration_ns_count 1",
		"# TYPE pjoin_punct_lag gauge",
		"pjoin_state_bytes 4096",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	// Exact cumulative counts at power-of-two edges: results are
	// i*1000 ns for i in 1..100, so le=65536 covers i <= 65.
	if !strings.Contains(out, `pjoin_result_latency_ns_bucket{le="65536"} 65`) {
		t.Errorf("wrong cumulative count at le=65536:\n%s", out)
	}
	// _sum is the exact sum: 1000 * (100*101/2).
	if !strings.Contains(out, fmt.Sprintf("pjoin_result_latency_ns_sum %d", 1000*100*101/2)) {
		t.Errorf("wrong _sum:\n%s", out)
	}
}

func TestWritePromEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProm(&buf, "op", LatSnapshot{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := CheckPromFormat(buf.Bytes()); err != nil {
		t.Fatalf("empty payload fails format check: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), `op_result_latency_ns_bucket{le="+Inf"} 0`) {
		t.Errorf("empty histogram should still expose zero buckets:\n%s", buf.String())
	}
}

// TestWritePromSpansFormat: the provenance-span counter families pass
// the strict format check, expose HELP/TYPE for every family, group the
// per-kind counts correctly, and compose with WriteProm in one payload
// (as the auctiond /metrics handler emits them).
func TestWritePromSpansFormat(t *testing.T) {
	counts := make([]int64, span.NumKinds())
	counts[span.KindPunctArrive] = 3
	counts[span.KindPunctPurgeMem] = 2
	counts[span.KindPunctEmit] = 3
	counts[span.KindPassStart] = 1
	counts[span.KindPassEnd] = 1
	counts[span.KindTupleIngest] = 7
	counts[span.KindTupleResult] = 5
	counts[span.KindPurgeRun] = 4
	counts[span.KindPunctDiscard] = 2

	var buf bytes.Buffer
	snap, gauges := promFixture()
	if err := WriteProm(&buf, "pjoin", snap, gauges); err != nil {
		t.Fatal(err)
	}
	if err := WritePromSpans(&buf, "pjoin", counts, 7, 441); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := CheckPromFormat(buf.Bytes()); err != nil {
		t.Fatalf("format check failed: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# HELP pjoin_span_punct_total ",
		"# TYPE pjoin_span_punct_total counter",
		"pjoin_span_punct_total 8",
		"# TYPE pjoin_span_pass_total counter",
		"pjoin_span_pass_total 2",
		"# TYPE pjoin_span_tuple_total counter",
		"pjoin_span_tuple_total 12",
		"# TYPE pjoin_span_point_total counter",
		"pjoin_span_point_total 6",
		"# TYPE pjoin_span_sampler_sampled_total counter",
		"pjoin_span_sampler_sampled_total 7",
		"# TYPE pjoin_span_sampler_dropped_total counter",
		"pjoin_span_sampler_dropped_total 441",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}

	// No span tracer attached: nil counts still expose the full schema.
	buf.Reset()
	if err := WritePromSpans(&buf, "pjoin", nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := CheckPromFormat(buf.Bytes()); err != nil {
		t.Fatalf("nil-counts payload fails format check: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "pjoin_span_punct_total 0") {
		t.Errorf("nil counts should render zero families:\n%s", buf.String())
	}
}

// TestHistTableComplete: the Hists table is the whole declaration. Every
// LatSnapshot field has exactly one row (reflection), and a sample
// recorded in each histogram shows in the snapshot and in WriteProm's
// output under the row's wire name — so a histogram added to the struct
// but not the table, or dropped by one of the walkers, fails here. (health.TestDumpParseable holds the flight dump to the same
// table.)
func TestHistTableComplete(t *testing.T) {
	st := reflect.TypeOf(LatSnapshot{})
	if st.NumField() != len(Hists) || reflect.TypeOf(Lat{}).NumField() != len(Hists) {
		t.Fatalf("Lat has %d fields, LatSnapshot %d, the table %d rows",
			reflect.TypeOf(Lat{}).NumField(), st.NumField(), len(Hists))
	}
	lat := NewLat()
	lv := reflect.ValueOf(lat).Elem()
	seen := map[string]bool{}
	for i, d := range Hists {
		if _, ok := st.FieldByName(d.Field); !ok || seen[d.Field] || seen[d.Name] || d.Help == "" {
			t.Fatalf("row %d (%+v): unknown field, duplicate or no help", i, d)
		}
		seen[d.Field], seen[d.Name] = true, true
		for n := 0; n <= i; n++ { // row i gets i+1 samples: rows cannot stand in for each other
			lv.FieldByName(d.Field).Interface().(*hist.Hist).Record(int64(1000 + i))
		}
	}
	snap := lat.Snapshot()
	var buf bytes.Buffer
	if err := WriteProm(&buf, "p", snap, nil); err != nil {
		t.Fatal(err)
	}
	for i, d := range Hists {
		want := int64(i + 1)
		if got := d.Of(&snap).Count; got != want {
			t.Errorf("%s: Snapshot count %d, want %d", d.Field, got, want)
		}
		if line := fmt.Sprintf("p_%s_count %d\n", d.Name, want); !strings.Contains(buf.String(), line) {
			t.Errorf("%s: WriteProm output lacks %q", d.Field, line)
		}
	}
}

// TestRingOnlyInstrCountsSpans: a process with only the flight ring
// behind its handle (auctiond with a health SLO and no -trace) still
// scrapes what it emitted — the counts come from the tee in front of the
// sinks, not from a file writer that may not exist.
func TestRingOnlyInstrCountsSpans(t *testing.T) {
	ring := NewRing(4)
	tee := span.NewTee(ring)
	in := NewInstr(tee, nil, "join")
	in.Span(span.KindPunctArrive, 1, 1, 0, 1, 0, 0, 0)
	in.Span(span.KindPassStart, 2, 2, -1, 0, 0, 0, 0)
	in.Span(span.KindTupleProbe, 3, 3, 0, 0, 0, 0, 0)
	in.Span(span.KindPurgeRun, 0, 4, 0, 0, 0, 0, 0)
	in.SpillError(5, 0, errors.New("boom"))
	if got := len(ring.Snapshot()); got != 4 || ring.Total() != 5 {
		t.Fatalf("ring holds %d of %d spans, want the last 4 of 5", got, ring.Total())
	}
	var buf bytes.Buffer
	if err := WritePromSpans(&buf, "pjoin", tee.Counts(), 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pjoin_span_punct_total 1\n", "pjoin_span_pass_total 1\n",
		"pjoin_span_tuple_total 1\n", "pjoin_span_point_total 2\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q in:\n%s", want, buf.String())
		}
	}
	ring.Detach()
	if in.Enabled() {
		t.Error("a tee whose only sink detached still reports enabled")
	}
}

func TestCheckPromFormatRejectsGarbage(t *testing.T) {
	bad := []string{
		"not a metric line at all!",
		"x_bucket{le=\"8\"} 5\nx_bucket{le=\"4\"} 6\nx_bucket{le=\"+Inf\"} 6\nx_count 6", // le not increasing
		"x_bucket{le=\"4\"} 5\nx_bucket{le=\"8\"} 3\nx_bucket{le=\"+Inf\"} 5\nx_count 5", // count decreased
		"x_bucket{le=\"4\"} 1\nx_bucket{le=\"+Inf\"} 2\nx_count 3",                       // count mismatch
		"x_bucket{le=\"4\"} 1\nx_count 1",                                                // missing +Inf
		"dup 1\ndup 2",                                                                   // duplicate series
		"# BADCOMMENT x y",                                                               // malformed comment
	}
	for i, payload := range bad {
		if err := CheckPromFormat([]byte(payload)); err == nil {
			t.Errorf("case %d: garbage accepted:\n%s", i, payload)
		}
	}
}

func TestPromSanitize(t *testing.T) {
	cases := map[string]string{
		"state_bytes": "state_bytes",
		"punct-lag":   "punct_lag",
		"9lives":      "_lives",
		"a.b/c":       "a_b_c",
		"":            "_",
	}
	for in, want := range cases {
		if got := promSanitize(in); got != want {
			t.Errorf("promSanitize(%q) = %q, want %q", in, got, want)
		}
	}
}
