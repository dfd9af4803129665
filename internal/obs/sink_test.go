package obs

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pjoin/internal/obs/span"
	"pjoin/internal/stream"
)

// traceSome writes a small JSONL trace through the sink and closes it.
func traceSome(t *testing.T, path string, n int) {
	t.Helper()
	w, err := CreateSink(path)
	if err != nil {
		t.Fatal(err)
	}
	j := span.NewJSONL(w)
	for i := 0; i < n; i++ {
		j.Emit(span.Span{ID: uint64(i + 1), Trace: 1, Kind: span.KindTupleProbe, At: stream.Time(i), Op: "pjoin", Side: int8(i % 2)})
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	r, err := OpenSink(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var lines []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestSinkGzipRoundTrip: a trace written to a .gz path comes back
// identical through OpenSink, and the file really is a gzip stream.
func TestSinkGzipRoundTrip(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "trace.jsonl")
	zipped := filepath.Join(dir, "trace.jsonl.gz")
	const n = 500
	traceSome(t, plain, n)
	traceSome(t, zipped, n)

	plainLines := readLines(t, plain)
	zipLines := readLines(t, zipped)
	if len(plainLines) != n || len(zipLines) != n {
		t.Fatalf("line counts: plain %d, gz %d, want %d", len(plainLines), len(zipLines), n)
	}
	for i := range plainLines {
		if plainLines[i] != zipLines[i] {
			t.Fatalf("line %d differs:\nplain: %s\ngz:    %s", i, plainLines[i], zipLines[i])
		}
	}
	// Every line is valid JSON with the expected fields.
	var rec struct {
		Ev  string `json:"sp"`
		TNs int64  `json:"t_ns"`
	}
	if err := json.Unmarshal([]byte(zipLines[n-1]), &rec); err != nil {
		t.Fatalf("last line not JSON: %v", err)
	}
	if rec.Ev != "tuple_probe" || rec.TNs != n-1 {
		t.Fatalf("last line = %+v", rec)
	}

	// The .gz file must be a real gzip stream (magic header + smaller
	// than the plain trace), not a plain file with a misleading name.
	raw, err := os.ReadFile(zipped)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatal("missing gzip magic header")
	}
	plainInfo, err := os.Stat(plain)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) >= plainInfo.Size() {
		t.Fatalf("gzip trace (%d bytes) not smaller than plain (%d bytes)", len(raw), plainInfo.Size())
	}
	// And stdlib gzip must agree it is well-formed end-to-end.
	f, err := os.Open(zipped)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(zr).ReadBytes(0); err != nil && err.Error() != "EOF" {
		t.Fatalf("corrupt gzip stream: %v", err)
	}
	if err := zr.Close(); err != nil {
		t.Fatalf("gzip checksum: %v", err)
	}
}

// TestSinkCloseFlushesGzipFooter pins the Close contract: everything
// written before Close — including data still sitting in the gzip
// compressor — must be decodable by a STRICT reader afterwards, which
// requires Close to flush the deflate tail and write the 8-byte
// CRC/length footer. A sink that only closed the file would pass the
// round-trip test above whenever the payload happened to be flushed;
// this test reads the trailer bytes directly.
func TestSinkCloseFlushesGzipFooter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl.gz")
	w, err := CreateSink(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"sp":"tuple_probe","id":1,"t_ns":1}` + "\n")
	if _, err := w.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// RFC 1952: the member ends with CRC32 then ISIZE (uncompressed
	// length mod 2^32), both little-endian. ISIZE is the cheap footer
	// probe: it must equal the payload length.
	if len(raw) < 8 {
		t.Fatalf("gzip file too short for a footer: %d bytes", len(raw))
	}
	isize := uint32(raw[len(raw)-4]) | uint32(raw[len(raw)-3])<<8 |
		uint32(raw[len(raw)-2])<<16 | uint32(raw[len(raw)-1])<<24
	if isize != uint32(len(payload)) {
		t.Fatalf("gzip ISIZE footer = %d, want %d (footer not flushed on Close)", isize, len(payload))
	}
	// And the strict reader must decode the full payload with a clean
	// checksum — gzip.Reader verifies the footer on EOF.
	r, err := OpenSink(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("strict read after Close: %v", err)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
}

// TestSinkTolerantTruncatedTrailer: a gzip trace missing its trailer
// (crash mid-write) fails the strict reader but yields its decodable
// prefix through OpenSinkTolerant; genuine mid-stream corruption is
// still reported.
func TestSinkTolerantTruncatedTrailer(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl.gz")
	const n = 200
	traceSome(t, full, n)
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// Chop the 8-byte footer (and a little of the deflate tail, as a
	// real crash would).
	trunc := filepath.Join(dir, "trunc.jsonl.gz")
	if err := os.WriteFile(trunc, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	// Strict reader: the truncation must surface as an error.
	sr, err := OpenSink(trunc)
	if err != nil {
		t.Fatal(err)
	}
	_, strictErr := io.ReadAll(sr)
	sr.Close()
	if strictErr == nil {
		t.Fatal("strict reader accepted a truncated gzip stream")
	}

	// Tolerant reader: a clean EOF after the decodable prefix. The tail
	// may end mid-line; every complete line must match the original.
	tr, err := OpenSinkTolerant(trunc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(tr)
	if err != nil {
		t.Fatalf("tolerant read: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("tolerant close: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("tolerant reader recovered nothing")
	}
	fullR, err := OpenSink(full)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(fullR)
	fullR.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want[:len(got)]) {
		t.Fatal("recovered prefix diverges from the original trace")
	}
	lines := strings.Count(string(got), "\n")
	if lines < n/2 {
		t.Fatalf("recovered only %d of %d lines", lines, n)
	}

	// Tolerant mode must not mask mid-stream corruption: flip a byte in
	// the deflate payload (past the 10-byte header) and expect an error.
	corrupt := filepath.Join(dir, "corrupt.jsonl.gz")
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0xff
	if err := os.WriteFile(corrupt, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	cr, err := OpenSinkTolerant(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Close()
	if _, err := io.ReadAll(cr); err == nil {
		t.Fatal("tolerant reader swallowed mid-stream corruption")
	}
}

func TestSinkPlainPassThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	traceSome(t, path, 3)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || raw[0] != '{' {
		t.Fatalf("plain sink should write JSONL directly, got %q", raw)
	}
}
