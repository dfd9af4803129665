package bench

import (
	"bufio"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
)

// TestFlightRegression is the fault-injection acceptance test for the
// stall detector + flight recorder: a spill device that fails on read
// wedges the join's purge passes, punctuation lag grows past the SLO
// while input keeps arriving, the detector fires, and the dump is
// parseable JSONL containing the spill_error spans and every histogram
// of the obs.Hists table.
func TestFlightRegression(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl.gz")
	out, err := RunFlight(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Report.Reason != "lag_slo" {
		t.Errorf("reason = %q, want lag_slo", out.Report.Reason)
	}
	if out.PunctsOut == 0 {
		t.Error("no punctuations propagated before the wedge: the healthy phase is vacuous")
	}
	if out.Report.At <= out.WedgedAt {
		t.Errorf("fired at %v, not after the wedge at %v", out.Report.At, out.WedgedAt)
	}
	if out.Report.Lag < 200_000_000 {
		t.Errorf("reported lag %v below the 200ms SLO", out.Report.Lag)
	}

	// The dump must round-trip through the gzip sink as JSONL: a flight
	// header, the ring's spans, then histogram summaries.
	src, err := obs.OpenSink(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var (
		header    map[string]any
		events    int
		histsSeen []string
		spillErrs int
	)
	sc := bufio.NewScanner(src)
	for i := 0; sc.Scan(); i++ {
		line := sc.Text()
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		switch m["type"] {
		case "flight":
			if i != 0 {
				t.Errorf("flight header on line %d, want 0", i)
			}
			header = m
		case "hist":
			histsSeen = append(histsSeen, m["name"].(string))
		default:
			events++
			s, ok, err := span.ParseLine([]byte(line))
			if err != nil || !ok {
				t.Fatalf("line %d is not a span line (ok=%v err=%v): %s", i, ok, err, line)
			}
			if s.Kind == span.KindSpillError {
				spillErrs++
				if !strings.Contains(s.Err, "injected") || s.Trace != 0 {
					t.Errorf("spill_error span lost the error text or gained a trace: %+v", s)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if header == nil {
		t.Fatal("no flight header line")
	}
	if header["reason"] != "lag_slo" {
		t.Errorf("header reason = %v", header["reason"])
	}
	if got := int(header["events"].(float64)); got != events {
		t.Errorf("header says %d events, dump has %d", got, events)
	}
	if int64(events) != out.RingEvents {
		t.Errorf("dumped %d events, ring held %d", events, out.RingEvents)
	}
	if spillErrs == 0 {
		t.Error("flight ring contains no spill_error spans — the recorder missed the fault")
	}
	if len(histsSeen) != len(obs.Hists) {
		t.Fatalf("hist lines = %v, want the %d of the table", histsSeen, len(obs.Hists))
	}
	for i, d := range obs.Hists {
		if histsSeen[i] != d.Name {
			t.Errorf("hist %d = %q, want %q", i, histsSeen[i], d.Name)
		}
	}
}
