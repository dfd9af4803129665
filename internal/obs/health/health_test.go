package health

import (
	"bufio"
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/stream"
)

const ms = stream.Millisecond

func TestDetectorStall(t *testing.T) {
	d := NewDetector(Config{StallWindow: 100 * ms})
	// t=0: baseline.
	if _, fired := d.Observe(Progress{Now: 0, TuplesIn: 10, TuplesOut: 5}); fired {
		t.Fatal("fired on first sample")
	}
	// Input flows, output frozen, but window not yet elapsed.
	if _, fired := d.Observe(Progress{Now: 50 * ms, TuplesIn: 100, TuplesOut: 5}); fired {
		t.Fatal("fired before window elapsed")
	}
	// Window elapsed with input flowing and output frozen: stall.
	r, fired := d.Observe(Progress{Now: 120 * ms, TuplesIn: 200, TuplesOut: 5})
	if !fired {
		t.Fatal("stall not detected")
	}
	if r.Reason != "stall" || r.Window != 120*ms || r.At != 120*ms {
		t.Fatalf("report = %+v", r)
	}
	if !d.Fired() {
		t.Fatal("detector not latched")
	}
	// Latched: no second fire.
	if _, fired := d.Observe(Progress{Now: 500 * ms, TuplesIn: 999, TuplesOut: 5}); fired {
		t.Fatal("fired twice")
	}
}

func TestDetectorOutputProgressResetsWindow(t *testing.T) {
	d := NewDetector(Config{StallWindow: 100 * ms})
	d.Observe(Progress{Now: 0, TuplesIn: 0, TuplesOut: 0})
	// Results keep trickling — never a stall, however long it runs.
	for i := 1; i <= 10; i++ {
		p := Progress{Now: stream.Time(i) * 80 * ms, TuplesIn: int64(i * 100), TuplesOut: int64(i)}
		if _, fired := d.Observe(p); fired {
			t.Fatalf("fired at sample %d despite output progress", i)
		}
	}
	// Punctuation propagation alone also counts as progress.
	d2 := NewDetector(Config{StallWindow: 100 * ms})
	d2.Observe(Progress{Now: 0})
	for i := 1; i <= 10; i++ {
		p := Progress{Now: stream.Time(i) * 80 * ms, TuplesIn: int64(i * 100), PunctsOut: int64(i)}
		if _, fired := d2.Observe(p); fired {
			t.Fatalf("fired at sample %d despite propagation progress", i)
		}
	}
}

func TestDetectorIdleInputIsNotAStall(t *testing.T) {
	d := NewDetector(Config{StallWindow: 100 * ms})
	d.Observe(Progress{Now: 0, TuplesIn: 50, TuplesOut: 5})
	// No new input, no output: the stream is idle, not stalled.
	for i := 1; i <= 10; i++ {
		p := Progress{Now: stream.Time(i) * 200 * ms, TuplesIn: 50, TuplesOut: 5}
		if _, fired := d.Observe(p); fired {
			t.Fatalf("fired at idle sample %d", i)
		}
	}
}

func TestDetectorLagSLO(t *testing.T) {
	d := NewDetector(Config{LagSLO: 500 * ms})
	d.Observe(Progress{Now: 0})
	if _, fired := d.Observe(Progress{Now: 100 * ms, PunctLag: 400 * ms}); fired {
		t.Fatal("fired under SLO")
	}
	r, fired := d.Observe(Progress{Now: 200 * ms, PunctLag: 600 * ms})
	if !fired || r.Reason != "lag_slo" || r.Lag != 600*ms {
		t.Fatalf("fired=%v report=%+v", fired, r)
	}
	if !strings.Contains(r.String(), "lag_slo") {
		t.Fatalf("String() = %q", r.String())
	}
}

func TestDetectorDisabledBounds(t *testing.T) {
	d := NewDetector(Config{}) // both bounds off
	d.Observe(Progress{Now: 0})
	for i := 1; i <= 5; i++ {
		p := Progress{Now: stream.Time(i) * 1000 * ms, TuplesIn: int64(i * 1000), PunctLag: stream.Time(i) * 1000 * ms}
		if _, fired := d.Observe(p); fired {
			t.Fatal("disabled detector fired")
		}
	}
}

// TestDumpParseable: the bundle is line-by-line parseable JSON with the
// documented sections in order.
func TestDumpParseable(t *testing.T) {
	ring := obs.NewRing(4)
	for i := 0; i < 9; i++ { // overflow the ring: keep newest 4
		ring.Emit(span.Span{ID: uint64(i + 1), Kind: span.KindSpillError, At: stream.Time(i), Op: "pjoin", Side: 0, Err: "disk gone"})
	}
	lat := obs.NewLat()
	lat.RecordResult(100*ms, 40*ms)
	lat.RecordPurge(12345)
	rep := Report{Reason: "stall", At: 120 * ms, Window: 100 * ms, Lag: 80 * ms,
		Last: Progress{TuplesIn: 200, TuplesOut: 5, PunctsOut: 1}}

	var buf bytes.Buffer
	if err := Dump(&buf, rep, ring, lat.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("unparseable line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	// 1 header + 4 ring spans + one summary per histogram of the table.
	if len(lines) != 5+len(obs.Hists) {
		t.Fatalf("got %d lines, want %d", len(lines), 5+len(obs.Hists))
	}
	h := lines[0]
	if h["type"] != "flight" || h["reason"] != "stall" || h["events"] != float64(4) {
		t.Fatalf("header = %v", h)
	}
	for i, l := range lines[1:5] {
		if l["sp"] != "spill_error" || l["err"] != "disk gone" {
			t.Fatalf("event line %d = %v", i, l)
		}
		if l["t_ns"] != float64(5+i) { // newest 4 of 9, oldest first
			t.Fatalf("event line %d t_ns = %v, want %d", i, l["t_ns"], 5+i)
		}
	}
	for i, l := range lines[5:] {
		if l["type"] != "hist" || l["name"] != obs.Hists[i].Name {
			t.Fatalf("hist line %d = %v, want %s", i, l, obs.Hists[i].Name)
		}
	}
	if lines[7]["name"] != "purge_duration_ns" || lines[7]["max"] != float64(12345) {
		t.Fatalf("purge hist summary = %v", lines[7])
	}
	if lines[5]["count"] != float64(1) || lines[5]["sum"] != float64(60*ms) {
		t.Fatalf("result hist summary = %v", lines[5])
	}
}

func TestDumpToFileGzip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl.gz")
	ring := obs.NewRing(2)
	ring.Emit(span.Span{ID: 1, Kind: span.KindPurgeRun, At: 1, Side: 0})
	if err := DumpToFile(path, Report{Reason: "lag_slo", At: 5}, ring, obs.LatSnapshot{}); err != nil {
		t.Fatal(err)
	}
	r, err := obs.OpenSink(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sc := bufio.NewScanner(r)
	var n int
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d unparseable: %v", n, err)
		}
		n++
	}
	if want := 2 + len(obs.Hists); n != want { // header + 1 span + the histograms
		t.Fatalf("got %d lines, want %d", n, want)
	}
}
