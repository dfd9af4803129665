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
	"pjoin/internal/stream"
)

func promFixture() (LatSnapshot, *Gauges) {
	lat := NewLat()
	for i := int64(1); i <= 100; i++ {
		lat.Result.Record(i * 1000)      // 1µs..100µs
		lat.PunctDelay.Record(i * 50000) // 50µs..5ms
	}
	lat.Purge.Record(1 << 20)
	g := &Gauges{
		Op: "my-join", At: 15 * stream.Millisecond, Punct: true, // the name needs sanitizing
		StateBytesA: 4096, BucketSkew: 0.25, PunctLag: 3 * stream.Millisecond / 2,
	}
	return lat.Snapshot(), g
}

func TestWritePromFormat(t *testing.T) {
	snap, g := promFixture()
	var buf bytes.Buffer
	if err := WriteProm(&buf, "pjoin", snap, g, SpanCounts{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := CheckPromFormat(buf.Bytes()); err != nil {
		t.Fatalf("format check failed: %v\n%s", err, out)
	}
	// The three histogram families and the sanitized gauges are present.
	for _, want := range []string{
		"# TYPE pjoin_result_latency_ns histogram",
		"# TYPE pjoin_punct_delay_ns histogram",
		"# TYPE pjoin_purge_duration_ns histogram",
		`pjoin_result_latency_ns_bucket{le="+Inf"} 100`,
		"pjoin_result_latency_ns_count 100",
		"pjoin_punct_delay_ns_count 100",
		"pjoin_purge_duration_ns_count 1",
		"# TYPE pjoin_my_join_punct_lag_ms gauge",
		"pjoin_my_join_punct_lag_ms 1.5\n",
		"pjoin_my_join_state_bytes_a 4096\n",
		"pjoin_my_join_bucket_skew 0.25\n",
		"pjoin_sampled_at_ms 15\n",
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
	if err := WriteProm(&buf, "op", LatSnapshot{}, nil, SpanCounts{}); err != nil {
		t.Fatal(err)
	}
	if err := CheckPromFormat(buf.Bytes()); err != nil {
		t.Fatalf("empty payload fails format check: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), `op_result_latency_ns_bucket{le="+Inf"} 0`) {
		t.Errorf("empty histogram should still expose zero buckets:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "gauge") {
		t.Errorf("no snapshot, yet gauges rendered:\n%s", buf.String())
	}
}

// TestWritePromSpansFormat: the provenance-span counter families pass
// the strict format check, expose HELP/TYPE for every family, group the
// per-kind counts a tee keeps correctly, and render as zeros with no
// tracer attached.
func TestWritePromSpansFormat(t *testing.T) {
	tee := span.NewTee(span.Nop)
	for k, n := range map[span.Kind]int{
		span.KindPunctArrive: 3, span.KindPunctPurgeMem: 2, span.KindPunctEmit: 3,
		span.KindPassStart: 1, span.KindPassEnd: 1,
		span.KindTupleIngest: 7, span.KindTupleResult: 5,
		span.KindPurgeRun: 4, span.KindPunctDiscard: 2,
	} {
		for i := 0; i < n; i++ {
			tee.Emit(span.Span{Kind: k})
		}
	}
	smp := span.NewSampler(64)
	for i := 0; i < 448; i++ {
		smp.Sample()
	}

	var buf bytes.Buffer
	snap, g := promFixture()
	if err := WriteProm(&buf, "pjoin", snap, g, CountSpans(tee, smp)); err != nil {
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

	// No span tracer attached: the families still render, as zeros.
	buf.Reset()
	if err := WriteProm(&buf, "pjoin", snap, nil, CountSpans(nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := CheckPromFormat(buf.Bytes()); err != nil {
		t.Fatalf("nil-counts payload fails format check: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "pjoin_span_punct_total 0") {
		t.Errorf("nil counts should render zero families:\n%s", buf.String())
	}
}

// TestGaugeTableComplete: GaugeDefs is the whole declaration. Every
// gauge field of Gauges has exactly one row (reflection), each row reads
// its own field, and WriteProm renders every row with a HELP line — the
// punctuation rows only for a join that keeps punctuations.
func TestGaugeTableComplete(t *testing.T) {
	gt := reflect.TypeOf(Gauges{})
	const header = 3 // Op, At, Punct
	if gt.NumField()-header != len(GaugeDefs) {
		t.Fatalf("Gauges has %d gauge fields, the table %d rows", gt.NumField()-header, len(GaugeDefs))
	}
	var g Gauges
	gv := reflect.ValueOf(&g).Elem()
	for i := header; i < gt.NumField(); i++ {
		switch f := gv.Field(i); f.Kind() {
		case reflect.Float64:
			f.SetFloat(float64(i))
		default:
			f.SetInt(int64(i))
		}
	}
	g.PunctLag *= stream.Millisecond // the row reads ms
	seen := map[float64]bool{}
	names := map[string]bool{}
	for _, d := range GaugeDefs {
		v := d.Of(&g)
		if seen[v] || names[d.Name] || d.Help == "" {
			t.Errorf("row %s: reads a field another row reads, repeats a name or has no help", d.Name)
		}
		seen[v], names[d.Name] = true, true
	}
	for _, punct := range []bool{true, false} {
		g.Op, g.Punct = "j", punct
		var buf bytes.Buffer
		if err := WriteProm(&buf, "p", LatSnapshot{}, &g, SpanCounts{}); err != nil {
			t.Fatal(err)
		}
		for _, d := range GaugeDefs {
			help := "# HELP p_j_" + d.Name + " "
			if got := strings.Contains(buf.String(), help); got != (punct || !d.Punct) {
				t.Errorf("punct %v: %s rendered %v", punct, d.Name, got)
			}
		}
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
	if err := WriteProm(&buf, "p", snap, nil, SpanCounts{}); err != nil {
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
	if err := WriteProm(&buf, "pjoin", LatSnapshot{}, nil, CountSpans(tee, nil)); err != nil {
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
