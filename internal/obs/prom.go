package obs

import (
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"

	"pjoin/internal/obs/hist"
	"pjoin/internal/obs/span"
)

// Prometheus text exposition (version 0.0.4) for the latency histograms,
// the live gauges and the span counters — what `auctiond -http` serves at
// /metrics alongside the expvar endpoint. Everything is rendered from
// snapshots (hist atomics, a Board's copy, the tee's and sampler's
// atomic counts) through the declaration tables, so a scrape never
// touches operator state and is safe while the operator runs.

// promHistBounds are the cumulative `le` bucket bounds, in ns. Powers
// of two are exact edges of the hist bucket layout, so each cumulative
// count is exact, not interpolated. The range spans 1µs–~18min; +Inf is
// appended by the writer.
var promHistBounds = func() []int64 {
	var b []int64
	for k := uint(10); k <= 40; k += 2 {
		b = append(b, int64(1)<<k)
	}
	return b
}()

// writePromHist renders one histogram as a full Prometheus histogram
// family: _bucket (cumulative, ending at +Inf), _sum, _count.
func writePromHist(w io.Writer, name, help string, s hist.Snapshot) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	for _, bound := range promHistBounds {
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, bound, s.CumulativeAtOrBelow(bound)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, s.Sum, name, s.Count); err != nil {
		return err
	}
	return nil
}

// promSanitize maps an arbitrary gauge name onto the Prometheus metric
// name alphabet [a-zA-Z_:][a-zA-Z0-9_:]*.
func promSanitize(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			c = '_'
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return "_"
	}
	return string(out)
}

// SpanCounts are the span counter families' values: the spans emitted
// per family and the tuple sampler's decisions.
type SpanCounts struct {
	Punct, Pass, Tuple, Point int64
	Sampled, Dropped          int64
}

// CountSpans reads a tee's per-kind counts and a sampler's decisions.
// Either may be nil (no tracer attached): its families read zero, so the
// scrape schema does not depend on tracing.
func CountSpans(t *span.Tee, s *span.Sampler) SpanCounts {
	var c SpanCounts
	c.Punct, c.Pass, c.Tuple, c.Point = span.FamilyCounts(t.Counts())
	c.Sampled, c.Dropped = s.Sampled(), s.Dropped()
	return c
}

// CounterDef is one row of the span counter table.
type CounterDef struct {
	Name string // wire name after <prefix>_
	Help string // Prometheus HELP text
	Of   func(*SpanCounts) int64
}

// SpanCounters is the one declaration of the span counter families. The
// drop count is what tells an operator how much provenance the sample
// rate leaves on the floor.
var SpanCounters = []CounterDef{
	{"span_punct_total", "Punctuation-lifecycle provenance spans emitted (arrive/purge/defer/emit).", func(c *SpanCounts) int64 { return c.Punct }},
	{"span_pass_total", "Disk-pass provenance spans emitted (start/chunk/io/end).", func(c *SpanCounts) int64 { return c.Pass }},
	{"span_tuple_total", "Sampled-tuple provenance spans emitted (ingest/cut/deliver/probe/result).", func(c *SpanCounts) int64 { return c.Tuple }},
	{"span_point_total", "Point spans emitted (purge run, relocation, spill error, operator start/finish, discarded punctuation).", func(c *SpanCounts) int64 { return c.Point }},
	{"span_sampler_sampled_total", "Tuples admitted into provenance tracing by the span sampler.", func(c *SpanCounts) int64 { return c.Sampled }},
	{"span_sampler_dropped_total", "Tuples passed over by the span sampler (provenance left unrecorded).", func(c *SpanCounts) int64 { return c.Dropped }},
}

// WriteProm renders the full /metrics payload: every histogram of Hists
// under <prefix>_<wire name>; when g is not nil, the snapshot's time as
// <prefix>_sampled_at_ms and every row of GaugeDefs under
// <prefix>_<op>_<wire name> (the Punct rows only for a join that keeps
// punctuations); then every span counter family.
func WriteProm(w io.Writer, prefix string, lat LatSnapshot, g *Gauges, sc SpanCounts) error {
	prefix = promSanitize(prefix)
	for _, d := range Hists {
		if err := writePromHist(w, prefix+"_"+d.Name, d.Help, *d.Of(&lat)); err != nil {
			return err
		}
	}
	if g != nil {
		if err := writePromLine(w, prefix+"_sampled_at_ms", "Virtual time of the gauge snapshot (ms).", "gauge", strconv.FormatFloat(g.At.Millis(), 'g', -1, 64)); err != nil {
			return err
		}
		op := prefix + "_" + promSanitize(g.Op) + "_"
		for _, d := range GaugeDefs {
			if d.Punct && !g.Punct {
				continue
			}
			if err := writePromLine(w, op+d.Name, d.Help, "gauge", strconv.FormatFloat(d.Of(g), 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	for _, d := range SpanCounters {
		if err := writePromLine(w, prefix+"_"+d.Name, d.Help, "counter", strconv.FormatInt(d.Of(&sc), 10)); err != nil {
			return err
		}
	}
	return nil
}

// writePromLine renders a one-sample family with its HELP and TYPE.
func writePromLine(w io.Writer, name, help, typ, val string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, help, name, typ, name, val)
	return err
}

var (
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="(?:\+Inf|[0-9]+)"\})? (-?[0-9.eE+-]+|NaN)$`)
	promHelpRe   = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
)

// CheckPromFormat strictly validates a Prometheus text-exposition
// payload as WriteProm produces it: every line is a well-formed HELP,
// TYPE or sample line; every histogram's cumulative buckets are
// monotone non-decreasing, end at le="+Inf", and agree with _count; no
// series appears twice. Used by the format tests here and by the
// /metrics endpoint test in cmd/auctiond.
func CheckPromFormat(data []byte) error {
	type histState struct {
		lastLe    float64
		lastCount int64
		infCount  int64
		sawInf    bool
	}
	hists := map[string]*histState{}
	counts := map[string]int64{}
	seen := map[string]bool{}
	for i, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !promHelpRe.MatchString(line) {
				return fmt.Errorf("line %d: malformed comment %q", i+1, line)
			}
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: malformed sample %q", i+1, line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		if seen[name+labels] {
			return fmt.Errorf("line %d: duplicate series %s%s", i+1, name, labels)
		}
		seen[name+labels] = true
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("line %d: bad value %q: %v", i+1, valStr, err)
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			base := strings.TrimSuffix(name, "_bucket")
			h := hists[base]
			if h == nil {
				h = &histState{lastLe: -1}
				hists[base] = h
			}
			le := strings.TrimSuffix(strings.TrimPrefix(labels, `{le="`), `"}`)
			if le == "+Inf" {
				h.sawInf = true
				h.infCount = int64(val)
				break
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("line %d: bad le %q", i+1, le)
			}
			if h.sawInf {
				return fmt.Errorf("line %d: bucket after +Inf for %s", i+1, base)
			}
			if bound <= h.lastLe {
				return fmt.Errorf("line %d: le bounds not increasing for %s", i+1, base)
			}
			if int64(val) < h.lastCount {
				return fmt.Errorf("line %d: cumulative count decreased for %s", i+1, base)
			}
			h.lastLe, h.lastCount = bound, int64(val)
		case strings.HasSuffix(name, "_count"):
			counts[strings.TrimSuffix(name, "_count")] = int64(val)
		}
	}
	for base, h := range hists {
		if !h.sawInf {
			return fmt.Errorf("histogram %s missing le=\"+Inf\" bucket", base)
		}
		if h.infCount < h.lastCount {
			return fmt.Errorf("histogram %s: +Inf bucket %d below last bound %d", base, h.infCount, h.lastCount)
		}
		c, ok := counts[base]
		if !ok {
			return fmt.Errorf("histogram %s missing _count", base)
		}
		if c != h.infCount {
			return fmt.Errorf("histogram %s: _count %d != +Inf bucket %d", base, c, h.infCount)
		}
	}
	return nil
}
