package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// testScale runs every workload and drill at 1/50 size.
const testScale = 0.02

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type manifest struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []manifestMetric             `json:"end_to_end"`
	PerLayer  []manifestMetric             `json:"per_layer"`
}

// TestNamesMatchManifest: the names the command prints are the names
// BENCHMARK.json declares, with the same units, directions and bounds.
func TestNamesMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %q (%q), code %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
	}
	same := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, code has %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: manifest %+v, code %+v", kind, i, g, w)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.Bound) {
				t.Errorf("%s %s: manifest bound %v, code %v", kind, w.Name, g.Bound, w.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, w.Name)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd, true)
	same("per_layer", m.PerLayer, perLayer, false)
}

// TestSessionPrintsEveryMetric runs the whole session (all workloads,
// interleaved rounds, traced round, drives, drills) at 1/50 size and
// checks that each workload's result line carries exactly the declared
// names and that nothing failed the correctness gate.
func TestSessionPrintsEveryMetric(t *testing.T) {
	rep, err := runSession(options{
		workloads: workloads, seed: 1, rounds: minRounds, inputs: 2,
		trace: true, traceDir: t.TempDir(), scale: testScale,
	})
	if err != nil {
		t.Fatal(err)
	}
	names := func(defs []metricDef) []string {
		var ns []string
		for _, d := range defs {
			ns = append(ns, d.Name)
		}
		sort.Strings(ns)
		return ns
	}
	keys := func(r result) []string {
		var ks []string
		for k, v := range r.Metrics {
			ks = append(ks, k)
			if v.Unit == "" {
				t.Errorf("metric %s printed without a unit", k)
			}
		}
		sort.Strings(ks)
		return ks
	}
	for _, wr := range rep.Workloads {
		if wr.Failed != 0 || wr.Attempted < 1 {
			t.Errorf("%s: failed %d of %d: %v", wr.Name, wr.Failed, wr.Attempted, wr.Faults)
		}
		if len(wr.Runs) < minRounds {
			t.Errorf("%s: %d timed rounds, want at least %d", wr.Name, len(wr.Runs), minRounds)
		}
		if got, want := keys(resultLine(wr, false)), names(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end line has %v, want %v", wr.Name, got, want)
		}
		if got, want := keys(resultLine(wr, true)), names(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer line has %v, want %v", wr.Name, got, want)
		}
		for _, m := range compared() {
			if wr.Live[m.Name].Median <= 0 {
				t.Errorf("%s: %s = %v, want a positive reading", wr.Name, m.Name, wr.Live[m.Name].Median)
			}
		}
		if _, err := os.Stat(wr.TraceFile); err != nil {
			t.Errorf("%s: span file: %v", wr.Name, err)
		}
		spilled := wr.PerLayer["store.spilled_tuples"] + wr.PerLayer["joinbase.disk_joins"] + wr.PerLayer["store.bytes_read"]
		if (spilled > 0) != wr.ins[0].spec.spills() {
			t.Errorf("%s: spill counters sum to %v, workload spills: %v", wr.Name, spilled, wr.ins[0].spec.spills())
		}
	}
}

// TestDirectDriveRepeats: the direct drive's counters are a function of
// the seed alone.
func TestDirectDriveRepeats(t *testing.T) {
	for _, w := range workloads {
		drive := func(seed uint64) *direct {
			t.Helper()
			in, err := prepare(w.scaled(testScale), seed)
			if err != nil {
				t.Fatal(err)
			}
			d, err := driveDirect(in, false)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		a, b, c := drive(1), drive(1), drive(2)
		if a.m != b.m || a.io != b.io || a.peakState != b.peakState || a.outPuncts != b.outPuncts {
			t.Errorf("%s: same seed, different counters:\n%+v %+v\n%+v %+v", w.Name, a.m, a.io, b.m, b.io)
		}
		if a.m == c.m {
			t.Errorf("%s: seeds 1 and 2 gave identical counters %+v", w.Name, a.m)
		}
	}
}

// TestTapsDoNotChangeResults: a tapped pipeline delivers the same result
// count and checksum as an untapped one, and both match the reference.
func TestTapsDoNotChangeResults(t *testing.T) {
	for _, w := range workloads {
		in, err := prepare(w.scaled(testScale), 1)
		if err != nil {
			t.Fatal(err)
		}
		sums := make(map[bool]uint64)
		for _, tapped := range []bool{false, true} {
			o := liveOpts{checksum: true}
			if tapped {
				o.tr = &tracer{workload: w.Name}
			}
			pl, err := build(in, o)
			if err != nil {
				t.Fatal(err)
			}
			r, err := runBuilt(in, pl, 1, o)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 {
				t.Errorf("%s tapped=%v: %v", w.Name, tapped, r.faults)
			}
			if pl.snk.tuples != in.ref.sinkTuples {
				t.Errorf("%s tapped=%v: %d tuples at the sink, reference has %d", w.Name, tapped, pl.snk.tuples, in.ref.sinkTuples)
			}
			sums[tapped] = pl.snk.sum
			if tapped {
				if j := o.tr.find("core"); j == nil || j.calls == 0 || j.emits != in.ref.joinResults+r.m.PunctsOut {
					t.Errorf("%s: join tap saw %+v, want %d emits", w.Name, j, in.ref.joinResults+r.m.PunctsOut)
				}
			}
		}
		if sums[false] != sums[true] || sums[true] != in.ref.sinkSum {
			t.Errorf("%s: checksums untapped %x, tapped %x, reference %x", w.Name, sums[false], sums[true], in.ref.sinkSum)
		}
	}
}

// TestLifecycleContract: the counting sink and tapOp hold their driver to
// the op.Operator contract (EOS once per port, Finish once and only after
// EOS, nothing after Finish), and emit exactly one EOS, from Finish.
func TestLifecycleContract(t *testing.T) {
	tuple := stream.TupleItem(stream.MustTuple(gen.SchemaA, 1, value.Int(1), value.Str("x")))
	cases := map[string]func(out op.Emitter) op.Operator{
		"sink": func(out op.Emitter) op.Operator { return &sink{out: out} },
		"tapOp": func(out op.Emitter) op.Operator {
			tr := &tracer{start: time.Now()}
			em, te := tr.emitter("benchmark", "inner", out)
			return tr.wrap(&sink{out: em}, te)
		},
	}
	for name, mk := range cases {
		out := &op.Collector{}
		o := mk(out)
		if err := o.Finish(1); err == nil {
			t.Errorf("%s: Finish before EOS accepted", name)
		}
		if err := o.Process(0, tuple, 1); err != nil {
			t.Errorf("%s: tuple: %v", name, err)
		}
		if err := o.(op.BatchProcessor).ProcessBatch(0, []stream.Item{tuple, stream.EOSItem(2)}, 2); err != nil {
			t.Errorf("%s: batch ending in EOS: %v", name, err)
		}
		if len(out.Items) != 0 {
			t.Errorf("%s: emitted %v before Finish", name, out.Items)
		}
		if err := o.Process(0, stream.EOSItem(3), 3); err == nil {
			t.Errorf("%s: duplicate EOS accepted", name)
		}
	}
	for name, mk := range cases {
		out := &op.Collector{}
		o := mk(out)
		if err := o.Process(0, stream.EOSItem(1), 1); err != nil {
			t.Fatalf("%s: EOS: %v", name, err)
		}
		if err := o.Finish(2); err != nil {
			t.Fatalf("%s: Finish: %v", name, err)
		}
		if len(out.Items) != 1 || out.Items[0].Kind != stream.KindEOS {
			t.Errorf("%s: Finish emitted %v, want exactly one EOS", name, out.Items)
		}
		if err := o.Finish(3); err == nil {
			t.Errorf("%s: double Finish accepted", name)
		}
		if err := o.Process(0, tuple, 4); err == nil {
			t.Errorf("%s: Process after Finish accepted", name)
		}
		if _, err := o.OnIdle(5); err == nil {
			t.Errorf("%s: OnIdle after Finish accepted", name)
		}
	}
}

// TestLatencyFromDueTime: latency is receipt time minus the due time on
// the generator's schedule. An aggregate row delivered 5 ms after its
// item's closing punctuation was due reads 5 ms, whatever timestamp the
// engine stamped on it.
func TestLatencyFromDueTime(t *testing.T) {
	const due, delay = 40 * time.Millisecond, 5 * time.Millisecond
	p := &latencyProbe{
		closeDue: []time.Duration{-1, due},
		start:    time.Now().Add(-(due + delay)),
	}
	s := &sink{out: discard, lat: p}
	row := func(item int64) stream.Item {
		return stream.TupleItem(&stream.Tuple{Values: []value.Value{value.Int(item), value.Float(3)}, Ts: 12345})
	}
	if err := s.ProcessBatch(0, []stream.Item{row(1), row(0), row(7)}, 1); err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != 1 {
		t.Fatalf("%d samples, want 1 (item 0 never closes, item 7 is unknown)", len(p.samples))
	}
	if got := p.samples[0]; got < delay || got > delay+time.Millisecond {
		t.Errorf("latency %v, want %v (+1 ms at most)", got, delay)
	}
}

func TestQuantilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	d := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if d.Q1 != 2.75 || d.Median != 5.5 || d.Q3 != 8.25 || d.Min != 1 || d.Max != 10 || d.N != 10 {
		t.Errorf("got %+v", d)
	}
}

// TestCompareVerdicts: -compare says ok within the bound, regressed past
// it, and unresolved when the noise or the host's speed hides the answer.
func TestCompareVerdicts(t *testing.T) {
	// A session whose rounds ran inputs of different fan-out: wall 1 s and
	// 1000 tuples per round, so throughput is 1000 x the given factor.
	session := func(seed uint64, calib float64, speed ...float64) *report {
		wr := &workloadReport{Name: "fanout_sat", SetupS: []float64{1, 1, 1, 1, 1}}
		for i, f := range speed {
			fanout := uint64(70 + 10*(i%3)) // the inputs differ by far more than any bound
			wr.Runs = append(wr.Runs, &run{Round: i + 1, Tuples: 1000, WallS: 1 / f, CPUS: 1 / f, Allocs: 1000 * fanout, Bytes: 64000 * fanout})
		}
		return &report{Seed: seed, CalibMs: calib, Workloads: []*workloadReport{wr}}
	}
	steady := []float64{1.00, 1.01, 1.02, 1.03, 1.04}
	cases := []struct {
		name    string
		a, b    *report
		verdict string
	}{
		{"same", session(1, 27, steady...), session(1, 27, steady...), "ok"},
		{"slower", session(1, 27, steady...), session(1, 27, .80, .81, .82, .83, .84), "regressed"},
		{"faster", session(1, 27, steady...), session(1, 27, 1.20, 1.21, 1.22, 1.23, 1.24), "ok"},
		{"noisy", session(1, 27, steady...), session(1, 27, .70, .85, 1.00, 1.15, 1.30), "unresolved"},
		{"drift", session(1, 27, steady...), session(1, 35, .96, .97, .98, .99, 1.00), "unresolved"},
		{"drift but clearly better", session(1, 27, steady...), session(1, 35, 1.20, 1.21, 1.22, 1.23, 1.24), "ok"},
		{"other seed", session(1, 27, steady...), session(2, 27, .80, .81, .82, .83, .84), "regressed"},
	}
	verdicts := func(a, b *report) map[string]string {
		var sb strings.Builder
		compareReports(&sb, a, b)
		out := make(map[string]string)
		for _, line := range strings.Split(sb.String(), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[0] == "fanout_sat" {
				out[f[1]] = f[len(f)-1]
			}
		}
		return out
	}
	for _, c := range cases {
		if got := verdicts(c.a, c.b)["live.throughput_tuples_per_s"]; got != c.verdict {
			t.Errorf("%s: throughput verdict %q, want %q", c.name, got, c.verdict)
		}
	}
	// Same seed: the rounds pair up, so inputs that differ by 25% in
	// allocations per tuple do not hide an unchanged count. Different
	// seeds: they do.
	if got := verdicts(cases[0].a, cases[0].b)["allocs_per_tuple"]; got != "ok" {
		t.Errorf("same seed: allocs verdict %q, want ok", got)
	}
	if got := verdicts(cases[6].a, cases[6].b)["allocs_per_tuple"]; got != "unresolved" {
		t.Errorf("other seed: allocs verdict %q, want unresolved", got)
	}
	if compareReports(io.Discard, cases[0].a, cases[0].b) {
		t.Error("identical sessions reported as not ok")
	}
	if !compareReports(io.Discard, cases[1].a, cases[1].b) {
		t.Error("a regression reported as ok")
	}
}
