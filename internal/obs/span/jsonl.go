package span

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"sync"

	"pjoin/internal/stream"
)

// JSONL is a Tracer that renders each span as one JSON object per line:
//
//	{"sp":"punct_purge_mem","id":17,"tr":3,"t_ns":120000000,"w_ns":...,
//	 "op":"pjoin","side":0,"n":42,"b":2048,"d_ns":91000}
//
// Zero-valued optional fields (tr 0, side < 0, n/m/b/d zero,
// op/err empty) are omitted. Encoding is hand-rolled with
// strconv.Append* so a traced run pays no encoding/json reflection per
// span; the hot cost is one mutex and a buffered write.
type JSONL struct {
	mu     sync.Mutex //pjoin:lockrank leaf
	w      *bufio.Writer
	buf    []byte
	events int64
	err    error
}

// NewJSONL returns a tracer writing to w. Call Flush before reading
// the underlying writer's output.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 256)}
}

// Enabled implements Tracer.
func (j *JSONL) Enabled() bool { return true }

// Emit implements Tracer.
func (j *JSONL) Emit(s Span) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	b := appendSpan(j.buf[:0], s)
	j.buf = b
	if _, err := j.w.Write(b); err != nil {
		j.err = err
		return
	}
	j.events++
}

// appendSpan renders one span as a JSON line.
func appendSpan(b []byte, s Span) []byte {
	b = append(b, `{"sp":"`...)
	b = append(b, s.Kind.String()...)
	b = append(b, `","id":`...)
	b = strconv.AppendUint(b, s.ID, 10)
	if s.Trace != 0 {
		b = append(b, `,"tr":`...)
		b = strconv.AppendUint(b, s.Trace, 10)
	}
	b = append(b, `,"t_ns":`...)
	b = strconv.AppendInt(b, int64(s.At), 10)
	if s.Wall != 0 {
		b = append(b, `,"w_ns":`...)
		b = strconv.AppendInt(b, s.Wall, 10)
	}
	if s.Op != "" {
		b = append(b, `,"op":`...)
		b = appendOpString(b, s.Op)
	}
	if s.Side >= 0 {
		b = append(b, `,"side":`...)
		b = strconv.AppendInt(b, int64(s.Side), 10)
	}
	if s.N != 0 {
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, s.N, 10)
	}
	if s.M != 0 {
		b = append(b, `,"m":`...)
		b = strconv.AppendInt(b, s.M, 10)
	}
	if s.B != 0 {
		b = append(b, `,"b":`...)
		b = strconv.AppendInt(b, s.B, 10)
	}
	if s.D != 0 {
		b = append(b, `,"d_ns":`...)
		b = strconv.AppendInt(b, s.D, 10)
	}
	if s.Err != "" {
		b = append(b, `,"err":`...)
		b = strconv.AppendQuote(b, s.Err)
	}
	return append(b, '}', '\n')
}

// appendOpString quotes an operator name. Operator names are plain
// ASCII identifiers in practice, so the common case skips
// strconv.AppendQuote's per-rune escape analysis — under full sampling
// this runs once per span and shows up in a traced run's CPU profile
// (the detached figure it is read against is benchmark/'s
// live.cpu_us_per_tuple).
func appendOpString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x7f {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// Events returns the number of spans written successfully.
func (j *JSONL) Events() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.events
}

// Flush drains the buffer and returns the first error seen on the
// underlying writer, if any.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

var _ Tracer = (*JSONL)(nil)

// ParseLine decodes one JSONL span line. Lines that are not span lines
// (no "sp" key — e.g. a flight dump's header and histogram lines) return
// ok == false with a nil error; malformed span lines return an error.
// The parser is hand-rolled for the fixed field set appendSpan emits:
// pjointrace reads multi-gigabyte traces, and encoding/json per line
// is the difference between seconds and minutes there.
func ParseLine(line []byte) (Span, bool, error) {
	var s Span
	s.Side = -1
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return s, false, nil
	}
	if !bytes.HasPrefix(line, []byte(`{"sp":"`)) {
		return s, false, nil
	}
	rest := line[len(`{"sp":"`):]
	q := bytes.IndexByte(rest, '"')
	if q < 0 {
		return s, false, fmt.Errorf("span: unterminated kind in %q", line)
	}
	k, ok := ParseKind(string(rest[:q]))
	if !ok {
		return s, false, fmt.Errorf("span: unknown kind %q", rest[:q])
	}
	s.Kind = k
	rest = rest[q+1:]
	for len(rest) > 0 {
		if rest[0] == '}' {
			return s, true, nil
		}
		if rest[0] != ',' {
			return s, false, fmt.Errorf("span: bad separator in %q", line)
		}
		rest = rest[1:]
		if len(rest) == 0 || rest[0] != '"' {
			return s, false, fmt.Errorf("span: bad key in %q", line)
		}
		q = bytes.IndexByte(rest[1:], '"')
		if q < 0 {
			return s, false, fmt.Errorf("span: unterminated key in %q", line)
		}
		key := string(rest[1 : 1+q])
		rest = rest[q+2:]
		if len(rest) == 0 || rest[0] != ':' {
			return s, false, fmt.Errorf("span: missing value for %q in %q", key, line)
		}
		rest = rest[1:]
		if key == "op" || key == "err" {
			end := quotedEnd(rest)
			str, err := strconv.Unquote(string(rest[:end]))
			if err != nil {
				return s, false, fmt.Errorf("span: bad %s in %q: %v", key, line, err)
			}
			if key == "op" {
				s.Op = str
			} else {
				s.Err = str
			}
			rest = rest[end:]
			continue
		}
		end := 0
		for end < len(rest) && rest[end] != ',' && rest[end] != '}' {
			end++
		}
		v, err := strconv.ParseInt(string(rest[:end]), 10, 64)
		if err != nil {
			return s, false, fmt.Errorf("span: bad %q value in %q: %v", key, line, err)
		}
		switch key {
		case "id":
			s.ID = uint64(v)
		case "tr":
			s.Trace = uint64(v)
		case "t_ns":
			s.At = stream.Time(v)
		case "w_ns":
			s.Wall = v
		case "side":
			s.Side = int8(v)
		case "n":
			s.N = v
		case "m":
			s.M = v
		case "b":
			s.B = v
		case "d_ns":
			s.D = v
		default:
			// Unknown keys are skipped so the format can grow.
		}
		rest = rest[end:]
	}
	return s, false, fmt.Errorf("span: unterminated object in %q", line)
}

// quotedEnd returns the length of the quoted string rest starts with,
// closing quote included and backslash escapes skipped; 0 when rest does
// not hold one (strconv.Unquote then rejects the empty slice).
func quotedEnd(rest []byte) int {
	if len(rest) == 0 || rest[0] != '"' {
		return 0
	}
	for i := 1; i < len(rest); i++ {
		switch rest[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return 0
}
