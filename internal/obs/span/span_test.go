package span

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"pjoin/internal/stream"
)

// TestNewIDUniqueConcurrent hammers the ID allocator from many
// goroutines (every operator of a traced pipeline and the executor
// allocate concurrently) and requires every ID
// to be unique and non-zero. Run under -race by `make race`.
func TestNewIDUniqueConcurrent(t *testing.T) {
	const workers = 8
	const perWorker = 20000
	ids := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]uint64, perWorker)
			for i := range out {
				out[i] = NewID()
			}
			ids[w] = out
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]struct{}, workers*perWorker)
	for w := range ids {
		for _, id := range ids[w] {
			if id == 0 {
				t.Fatal("NewID returned zero (zero means 'no trace')")
			}
			if _, dup := seen[id]; dup {
				t.Fatalf("duplicate span ID %d", id)
			}
			seen[id] = struct{}{}
		}
	}
}

// TestKindRoundTrip: String/ParseKind are inverses over the whole
// taxonomy, and the IsPunct/IsPass/IsTuple/IsPoint predicates partition
// it.
func TestKindRoundTrip(t *testing.T) {
	for i := 0; i < NumKinds(); i++ {
		k := Kind(i)
		name := k.String()
		if name == "unknown" {
			t.Fatalf("kind %d has no name", i)
		}
		back, ok := ParseKind(name)
		if !ok || back != k {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", name, back, ok, k)
		}
		groups := 0
		for _, in := range []bool{k.IsPunct(), k.IsPass(), k.IsTuple(), k.IsPoint()} {
			if in {
				groups++
			}
		}
		if groups != 1 {
			t.Fatalf("kind %v belongs to %d groups, want exactly 1", k, groups)
		}
	}
	if _, ok := ParseKind("no_such_span"); ok {
		t.Fatal("ParseKind accepted an unknown name")
	}
}

// TestJSONLRoundTrip: spans with every field populated, and with the
// optional fields zeroed, survive Emit → ParseLine unchanged, as does one
// span of every kind (err and a quoted op included); the Tee in front
// counts per kind; foreign (flight header) lines are skipped, not
// errors.
func TestJSONLRoundTrip(t *testing.T) {
	full := Span{
		ID: 42, Trace: 7, Kind: KindPunctPurgeMem, At: 123456, Wall: 1700000000000000000,
		Op: "pjoin", Side: 1, N: 10, M: 2, B: 4096, D: 91000,
	}
	sparse := Span{ID: 43, Kind: KindTupleIngest, At: 5, Side: -1}
	all := []Span{full, sparse}
	for k := 0; k < NumKinds(); k++ {
		s := Span{ID: uint64(100 + k), Trace: 9, Kind: Kind(k), At: stream.Time(k), Op: `x"jo\in`, Side: 0, N: int64(k)}
		if s.Kind.IsPoint() {
			s.Trace = 0
		}
		if s.Kind == KindSpillError {
			s.Err = `disk "gone", \\ and } too`
		}
		all = append(all, s)
	}

	var buf bytes.Buffer
	j := NewJSONL(&buf)
	tee := NewTee(j)
	for _, s := range all {
		tee.Emit(s)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := j.Events(); got != int64(len(all)) {
		t.Fatalf("Events() = %d, want %d", got, len(all))
	}
	counts := tee.Counts()
	if counts[KindPunctPurgeMem] != 2 || counts[KindTupleIngest] != 2 || counts[KindSpillError] != 1 {
		t.Fatalf("Counts() = %v", counts)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(all) {
		t.Fatalf("got %d lines, want %d", len(lines), len(all))
	}
	for i, want := range all {
		got, ok, err := ParseLine([]byte(lines[i]))
		if err != nil || !ok {
			t.Fatalf("line %d: ParseLine ok=%v err=%v", i, ok, err)
		}
		if got != want {
			t.Fatalf("line %d round-trip:\n got %+v\nwant %+v", i, got, want)
		}
	}

	// A flight dump's other lines sharing the stream are not spans.
	for _, foreign := range []string{
		`{"type":"hist","name":"purge_duration_ns","count":3}`,
		``,
		`   `,
	} {
		if _, ok, err := ParseLine([]byte(foreign)); ok || err != nil {
			t.Fatalf("foreign line %q: ok=%v err=%v, want skipped", foreign, ok, err)
		}
	}

	// Malformed span lines are errors, not silent skips.
	for _, bad := range []string{
		`{"sp":"nope","id":1,"t_ns":0}`,
		`{"sp":"punct_arrive","id":xx}`,
		`{"sp":"punct_arrive","id":1`,
		`{"sp":"punct_arrive","id":1,`,
		`{"sp":"spill_error","id":1,"err":"unterminated}`,
	} {
		if _, _, err := ParseLine([]byte(bad)); err == nil {
			t.Fatalf("malformed line %q accepted", bad)
		}
	}
}

// TestSampler: the 1-in-N admission pattern, the decision counters, and
// the nil no-op contract.
func TestSampler(t *testing.T) {
	s := NewSampler(4)
	admitted := 0
	for i := 0; i < 100; i++ {
		if s.Sample() {
			admitted++
		}
	}
	if admitted != 25 {
		t.Fatalf("1-in-4 over 100 admitted %d, want 25", admitted)
	}
	if s.Sampled() != 25 || s.Dropped() != 75 {
		t.Fatalf("counters = %d/%d, want 25/75", s.Sampled(), s.Dropped())
	}

	all := NewSampler(1)
	for i := 0; i < 10; i++ {
		if !all.Sample() {
			t.Fatal("rate-1 sampler rejected a tuple")
		}
	}
	if NewSampler(0).every != 1 {
		t.Fatal("rate 0 should clamp to 1")
	}

	var nilS *Sampler
	if nilS.Sample() {
		t.Fatal("nil sampler admitted a tuple")
	}
	if nilS.Sampled() != 0 || nilS.Dropped() != 0 {
		t.Fatal("nil sampler counted decisions")
	}
}

// TestRecorder: spans group by trace and order is preserved.
func TestRecorder(t *testing.T) {
	r := &Recorder{}
	if !r.Enabled() {
		t.Fatal("recorder should be enabled")
	}
	r.Emit(Span{ID: 1, Trace: 10, Kind: KindPunctArrive, At: stream.Time(1)})
	r.Emit(Span{ID: 2, Trace: 11, Kind: KindPunctArrive, At: stream.Time(2)})
	r.Emit(Span{ID: 3, Trace: 10, Kind: KindPunctEmit, At: stream.Time(3)})
	if len(r.Spans()) != 3 || r.Count(KindPunctArrive) != 2 || r.Count(KindPassEnd) != 0 {
		t.Fatalf("Spans() = %v", r.Spans())
	}
}
