package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
)

var update = flag.Bool("update", false, "rewrite the golden report from the current analyzer output")

// TestGoldenReport pins the full report on a committed mini trace (two
// closed punctuation lifecycles, one unclosed, a chunked disk pass, a
// sampled tuple with two results, one purge_run point span) cross-referenced
// against a committed flight dump. Every number in the report is derived
// from the trace, so the output is bit-deterministic. Regenerate with
// `go test ./cmd/pjointrace -update` after an intentional format change.
func TestGoldenReport(t *testing.T) {
	var buf bytes.Buffer
	problems, err := analyze(&buf, []string{filepath.Join("testdata", "mini.jsonl")},
		filepath.Join("testdata", "mini_flight.jsonl"), 10)
	if err != nil {
		t.Fatal(err)
	}
	// The mini trace deliberately contains exactly one unclosed
	// lifecycle (trace 102), which -strict would flag.
	if problems != 1 {
		t.Errorf("problems = %d, want 1 (the unclosed trace 102)", problems)
	}
	golden := filepath.Join("testdata", "mini.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report drifted from golden (run with -update if intentional):\n--- got ---\n%s\n--- want ---\n%s",
			buf.Bytes(), want)
	}
}

// TestAnalyzeTolerantTruncatedGzip: a trace whose gzip footer was lost
// (crashed run) still analyzes in full — the deflate stream is intact,
// only the 8-byte RFC 1952 trailer is missing, and the tolerant reader
// forgives exactly that.
func TestAnalyzeTolerantTruncatedGzip(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "mini.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gz := filepath.Join(dir, "mini.jsonl.gz")
	w, err := obs.CreateSink(gz)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(gz)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.jsonl.gz")
	if err := os.WriteFile(trunc, full[:len(full)-8], 0o644); err != nil {
		t.Fatal(err)
	}

	var want, got bytes.Buffer
	if _, err := analyze(&want, []string{filepath.Join("testdata", "mini.jsonl")}, "", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := analyze(&got, []string{trunc}, "", 10); err != nil {
		t.Fatalf("truncated-trailer trace failed to analyze: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("truncated-trailer report differs from plain report:\n--- got ---\n%s\n--- want ---\n%s",
			got.Bytes(), want.Bytes())
	}
}

// TestAnalyzeRejectsMalformedSpan: a corrupted span line is a hard
// error, not a silent skip — an analyzer that quietly drops records
// would undermine the reconciliation story.
func TestAnalyzeRejectsMalformedSpan(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte(`{"sp":"punct_arrive","id":xx}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := analyze(&buf, []string{bad}, "", 10); err == nil ||
		!strings.Contains(err.Error(), "span:") {
		t.Fatalf("analyze(malformed) err = %v, want span parse error", err)
	}
}

// TestPointSpansAreNotOrphans: Trace-0 records of the point family are
// complete on their own — -strict must not count them — while a span of
// any other family without a trace still is a problem.
func TestPointSpansAreNotOrphans(t *testing.T) {
	dir := t.TempDir()
	points := filepath.Join(dir, "points.jsonl")
	var lines []string
	for k := 0; k < span.NumKinds(); k++ {
		if span.Kind(k).IsPoint() {
			lines = append(lines, fmt.Sprintf(`{"sp":"%s","id":%d,"t_ns":%d,"op":"pjoin","side":0}`, span.Kind(k), k+1, k))
		}
	}
	if len(lines) == 0 {
		t.Fatal("no point kinds in the table")
	}
	if err := os.WriteFile(points, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	problems, err := analyze(&buf, []string{points}, "", 10)
	if err != nil || problems != 0 {
		t.Fatalf("point-only trace: problems=%d err=%v, want 0, nil\n%s", problems, err, buf.String())
	}
	if want := fmt.Sprintf("point %d)", len(lines)); !strings.Contains(buf.String(), want) {
		t.Errorf("header does not count the %d point spans:\n%s", len(lines), buf.String())
	}
	traceless := filepath.Join(dir, "traceless.jsonl")
	if err := os.WriteFile(traceless, []byte(`{"sp":"punct_purge_mem","id":1,"t_ns":1,"n":3}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if problems, err := analyze(&buf, []string{traceless}, "", 10); err != nil || problems != 1 {
		t.Fatalf("traceless lifecycle span: problems=%d err=%v, want 1, nil", problems, err)
	}
}

// TestWireLinesByteIdentical pins the "sp" wire format: every line of
// the committed mini trace — written in the format of the commits before
// the event/span fold, bar its one point line — decodes and re-encodes
// to the same bytes.
func TestWireLinesByteIdentical(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "mini.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	j := span.NewJSONL(&out)
	for i, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		s, ok, err := span.ParseLine(line)
		if err != nil || !ok {
			t.Fatalf("line %d: ok=%v err=%v", i, ok, err)
		}
		j.Emit(s)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), raw) {
		t.Errorf("re-encoded trace differs:\n--- got ---\n%s--- want ---\n%s", out.Bytes(), raw)
	}
}

// TestFlightDumpAlone: a flight dump is a trace too — its ring spans are
// analyzed when it is the only input, and its spill_error reaches the
// root-cause table.
func TestFlightDumpAlone(t *testing.T) {
	dump := filepath.Join("testdata", "mini_flight.jsonl")
	var buf bytes.Buffer
	if _, err := analyze(&buf, []string{dump}, dump, 10); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"1 spans (punct 0, pass 0, tuple 0, point 1), 4 foreign line(s) skipped",
		"1 ring span(s)",
		"spill errors: 1; first at 3.200ms (pjoin side 1): injected: unreadable spill sector",
		"hist punct_delay_ns",
		"hist batch_fill",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, buf.String())
		}
	}
	// batch_fill counts items per batch: its values are not durations.
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "hist batch_fill") &&
			(strings.Contains(line, "ms") || !strings.Contains(line, "p50 16 ")) {
			t.Errorf("batch_fill row is not printed as plain counts: %q", line)
		}
	}
}

// TestClosedDropsReclaimed: drops against a retired key (closed_drop
// point spans) count in the "reclaimed" line next to the lifecycles':
// N as on-the-fly, M as disk, their bytes in the total, and a parking
// (N = M = 0) as parked, so the line adds up to DroppedOnFly + Purged.
func TestClosedDropsReclaimed(t *testing.T) {
	var buf bytes.Buffer
	problems, err := analyze(&buf, []string{filepath.Join("testdata", "closed.jsonl")}, "", 0)
	if err != nil || problems != 0 {
		t.Fatalf("problems=%d err=%v, want 0, nil\n%s", problems, err, buf.String())
	}
	// Lifecycle: 1 on the fly + 1 from disk, 90 B. Closed: 2 on the fly,
	// 1 from disk, 140 B, 1 parked.
	want := " reclaimed: memory 0 tuples, disk 2 tuples, on-the-fly 3 tuples, 230B total; 1 parked for disk purge\n"
	if !strings.Contains(buf.String(), want) {
		t.Errorf("report lacks %q:\n%s", want, buf.String())
	}
}
