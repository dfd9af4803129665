package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
)

// TestTraceGzipIsWholeWhenSuccessIsReported runs the built command on
// one small figure with -trace into a .gz and reads the file back
// through the strict reader: the gzip trailer is written by the sink's
// Close, which main used to leave to a defer that os.Exit skips and
// whose error nobody read. Every line must be a span line, and the
// count the command printed must be the count on disk.
func TestTraceGzipIsWholeWhenSuccessIsReported(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH to build the command with")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "pjoinbench")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	trace := filepath.Join(dir, "fig5.jsonl.gz")
	out, err := exec.Command(bin, "-fig", "5", "-quick", "-trace", trace, "-csv", filepath.Join(dir, "fig5.csv")).CombinedOutput()
	if err != nil {
		t.Fatalf("pjoinbench: %v\n%s", err, out)
	}

	r, err := obs.OpenSink(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var lines, probes int
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		s, ok, err := span.ParseLine(sc.Bytes())
		if err != nil || !ok {
			t.Fatalf("line %d is not a span line (ok=%v err=%v): %s", lines, ok, err, sc.Text())
		}
		if s.Kind == span.KindTupleProbe {
			probes++
		}
		lines++
	}
	// The strict reader verifies the trailer's CRC and length on the way
	// to EOF: a truncated archive fails here.
	if err := sc.Err(); err != nil {
		t.Fatalf("trace archive is not whole: %v", err)
	}
	if probes == 0 {
		t.Error("no tuple_probe span: the simulated drive admitted no tuple")
	}
	if want := fmt.Sprintf("wrote %d spans to %s", lines, trace); !strings.Contains(string(out), want) {
		t.Errorf("command output lacks %q:\n%s", want, out)
	}

	// A sink that cannot be created is an error exit, not a silent run.
	if out, err := exec.Command(bin, "-fig", "5", "-quick", "-trace", filepath.Join(dir, "no", "such", "dir.gz")).CombinedOutput(); err == nil {
		t.Errorf("unwritable -trace path exited 0:\n%s", out)
	}
}
