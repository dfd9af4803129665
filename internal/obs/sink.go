package obs

import (
	"compress/gzip"
	"io"
	"os"
	"strings"
)

// CreateSink opens (creating/truncating) a trace output file. Paths
// ending in ".gz" write through a gzip.Writer — JSONL traces compress
// roughly 10x, which matters for long `pjoinbench -trace` runs and for
// flight-recorder dumps shipped off-box. Close flushes the gzip stream
// before closing the file; callers must Close to get a valid archive.
func CreateSink(path string) (io.WriteCloser, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	return &gzipSink{zw: gzip.NewWriter(f), f: f}, nil
}

type gzipSink struct {
	zw *gzip.Writer
	f  *os.File
}

func (s *gzipSink) Write(p []byte) (int, error) { return s.zw.Write(p) }

func (s *gzipSink) Close() error {
	zerr := s.zw.Close()
	ferr := s.f.Close()
	if zerr != nil {
		return zerr
	}
	return ferr
}

// OpenSink opens a trace file for reading, transparently ungzipping
// ".gz" paths — the read-side counterpart of CreateSink, used by tests
// and post-mortem tooling. Strict: a missing gzip trailer is an error.
func OpenSink(path string) (io.ReadCloser, error) { return openSink(path, false) }

// OpenSinkTolerant is OpenSink for traces that may be missing their
// gzip trailer: a process that crashed (or was flight-recorded) mid-run
// leaves a stream whose deflate tail and CRC/length footer never hit
// the disk, which the strict reader surfaces as io.ErrUnexpectedEOF on
// the very last read. Tolerant mode returns every byte that decoded
// cleanly and then reports a clean EOF, so `pjointrace` can analyze a
// crashed run's prefix. Corruption mid-stream is still surfaced: only
// errors at the point the file itself is exhausted are forgiven.
func OpenSinkTolerant(path string) (io.ReadCloser, error) { return openSink(path, true) }

func openSink(path string, tolerant bool) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &gzipSource{zr: zr, f: f, tolerant: tolerant}, nil
}

type gzipSource struct {
	zr       *gzip.Reader
	f        *os.File
	tolerant bool
	done     bool
}

func (s *gzipSource) Read(p []byte) (int, error) {
	if s.done {
		return 0, io.EOF
	}
	n, err := s.zr.Read(p)
	if s.tolerant && err == io.ErrUnexpectedEOF {
		// Truncated trailer: the compressed payload ran out before the
		// footer. Whatever decoded up to here is complete lines of the
		// prefix; end the stream cleanly.
		s.done = true
		if n > 0 {
			return n, nil
		}
		return 0, io.EOF
	}
	return n, err
}

func (s *gzipSource) Close() error {
	// zr.Close on a truncated stream reports the missing checksum; the
	// whole point of tolerant mode is to forgive exactly that.
	zerr := s.zr.Close()
	ferr := s.f.Close()
	if zerr != nil && !s.tolerant {
		return zerr
	}
	return ferr
}
