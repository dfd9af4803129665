package obs

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"pjoin/internal/obs/hist"
	"pjoin/internal/obs/span"
)

// Prometheus text exposition (version 0.0.4) for the latency histograms
// and live gauges — what `auctiond -http` serves at /metrics alongside
// the existing expvar endpoint. Everything is rendered from snapshots
// (hist atomics, Live.LastValues), so a scrape never touches operator
// state and is safe while the operator runs.

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

// WriteProm renders the full /metrics payload: every histogram of the
// Hists table under <prefix>_<wire name>, then one gauge per live
// sample, sorted by name for deterministic scrapes.
func WriteProm(w io.Writer, prefix string, lat LatSnapshot, gauges map[string]float64) error {
	prefix = promSanitize(prefix)
	for _, d := range Hists {
		if err := writePromHist(w, prefix+"_"+d.Name, d.Help, *d.Of(&lat)); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(gauges))
	for n := range gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mn := prefix + "_" + promSanitize(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", mn, mn,
			strconv.FormatFloat(gauges[n], 'g', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}

// WritePromSpans renders the span counter families: per-family emission
// totals (punctuation lifecycle, disk-pass, sampled-tuple, point) plus
// the tuple sampler's admit/drop decisions — the drop count is what
// tells an operator how much provenance the sample rate is leaving on
// the floor. counts is indexed by span.Kind (as span.Tee.Counts()
// returns); nil/short slices read as zero, so the scrape schema is
// stable whether or not a tracer is attached. Counter families only —
// CheckPromFormat applies unchanged.
func WritePromSpans(w io.Writer, prefix string, counts []int64, sampled, dropped int64) error {
	prefix = promSanitize(prefix)
	punct, pass, tuple, point := span.FamilyCounts(counts)
	families := []struct {
		name string
		help string
		val  int64
	}{
		{"span_punct_total", "Punctuation-lifecycle provenance spans emitted (arrive/purge/defer/emit).", punct},
		{"span_pass_total", "Disk-pass provenance spans emitted (start/chunk/io/end).", pass},
		{"span_tuple_total", "Sampled-tuple provenance spans emitted (ingest/cut/deliver/probe/result/route).", tuple},
		{"span_point_total", "Point spans emitted (purge run, relocation, spill error, operator start/finish, discarded punctuation).", point},
		{"span_sampler_sampled_total", "Tuples admitted into provenance tracing by the span sampler.", sampled},
		{"span_sampler_dropped_total", "Tuples passed over by the span sampler (provenance left unrecorded).", dropped},
	}
	for _, f := range families {
		n := prefix + "_" + f.name
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			n, f.help, n, n, f.val); err != nil {
			return err
		}
	}
	return nil
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
