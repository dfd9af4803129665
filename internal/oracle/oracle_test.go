package oracle

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// soakSeeds is how many seeds TestSoak checks. `make oracle` raises it
// via the ORACLE_SEEDS environment variable (200 by default there);
// plain `go test ./...` keeps a smaller always-on allotment so the
// differential harness runs on every test invocation.
func soakSeeds(t *testing.T) int {
	if s := os.Getenv("ORACLE_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("bad ORACLE_SEEDS=%q", s)
		}
		return n
	}
	if testing.Short() {
		return 8
	}
	return 32
}

// TestSoak is the differential soak: seeded scenarios, every matrix
// variant, shrunk-on-failure. A failure prints the minimized replay
// spec — feed it to `pjoinbench -oracle-replay` or Spec.Replay.
func TestSoak(t *testing.T) {
	n := soakSeeds(t)
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failed []string
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seed := next.Add(1)
				if seed > int64(n) {
					return
				}
				ds := CheckSeed(uint64(seed))
				if len(ds) == 0 {
					continue
				}
				spec := Shrink(uint64(seed), ds[0])
				mu.Lock()
				failed = append(failed, "replay spec: "+spec.String()+"\n"+Report(ds))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, f := range failed {
		t.Error(f)
	}
}

// TestRegressionSeeds pins the minimized replay specs of bugs the
// oracle found, so each stays fixed. Each spec must replay clean.
//
//   - seed 161 (a nested punctuation released early): B's <1, *> took
//     the pid of a stored (1, "B1"); B's later <[0..7], *> found no tuple
//     without a pid, counted zero and was propagated, and a result on key
//     1 followed it. Every variant shared the release, so only the order
//     check saw it. Fixed in punct.Set.Propagable: an entry waits for
//     every earlier overlapping entry that still counts tuples. The
//     FuzzOracle corpus pins the same bug as pinned-nested-punct-release.
//
// Three more specs left with the sharded rows: seed 4 (the sharded
// join's PunctDelay undercount), seed 42 (a Finish-time purge gap that
// only a sharded run's different spill schedule showed; Finish's final
// memory purge fixed it) and seed 932 (align forwarded a punctuation
// while a shard still owed results). Seed 932's align is still the
// benchmark's sharded drive: parallel:TestAlignCountsPerShard pins its
// per-shard count.
//
// The third bug of the first burn-down — removal-on-propagation making
// the final purge schedule-dependent — went with that mode: a released
// punctuation stays in force until it owes nothing. internal/core's
// TestChunkedBlockingEquivalence pins the schedule-independence.
func TestRegressionSeeds(t *testing.T) {
	specs := []string{
		"seed=161 variant=pjoin check=order prefix=16 drop=0,1,2,5,6,7,8,9,10,11,13,14",
	}
	for _, raw := range specs {
		spec, err := ParseSpec(raw)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", raw, err)
		}
		if ds := spec.Replay(); len(ds) != 0 {
			t.Errorf("pinned spec %q regressed:\n%s", raw, Report(ds))
		}
	}
}

// TestGeneratorInvariants: every decoded scenario must satisfy its own
// invariants (honesty, nested-or-disjoint, increasing timestamps) —
// cheap to check densely since no operators run.
func TestGeneratorInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		sc := FromSeed(seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := len(sc.Arrivals); got < 10 {
			t.Fatalf("seed %d: only %d arrivals", seed, got)
		}
	}
	// Byte-steered decoding obeys the same invariants.
	if err := FromBytes([]byte("adversarial entropy bytes \x00\xff\x80")).Validate(); err != nil {
		t.Fatalf("FromBytes: %v", err)
	}
}

func TestMatrixShape(t *testing.T) {
	vs := Matrix()
	if len(vs) != 30 {
		t.Fatalf("matrix rows = %d, want 30", len(vs))
	}
	seen := map[string]bool{}
	for _, v := range vs {
		s := v.String()
		if seen[s] {
			t.Fatalf("duplicate matrix row %s", s)
		}
		seen[s] = true
		back, err := ParseVariant(s)
		if err != nil {
			t.Fatalf("ParseVariant(%s): %v", s, err)
		}
		if back != v {
			t.Fatalf("variant round-trip: %s -> %+v, want %+v", s, back, v)
		}
	}
}

// TestScrambledRowsAreNotVacuous: a scrambled scenario delivers every
// tuple with an own Ts that is not its arrival time and leaves the
// scenario it came from untouched, and the window rows' reference drops
// pairs on most seeds, so neither axis passes for want of a case.
func TestScrambledRowsAreNotVacuous(t *testing.T) {
	sc := FromSeed(3)
	for i, a := range sc.scrambled().Arrivals {
		orig := sc.Arrivals[i].Item
		if a.Item.Kind != stream.KindTuple {
			continue
		}
		if a.Item.Tuple.Ts == a.Item.Ts || a.Item.Tuple == orig.Tuple || a.Item.Ts != orig.Ts {
			t.Fatalf("arrival %d: tuple %v at %d is not a scrambled copy", i, a.Item.Tuple, a.Item.Ts)
		}
		if orig.Tuple.Ts != orig.Ts {
			t.Fatalf("arrival %d: scrambling wrote the scenario's tuple %v", i, orig.Tuple)
		}
	}
	windowed := 0
	for seed := uint64(1); seed <= 32; seed++ {
		sc := FromSeed(seed)
		all, in := RunOracle(sc, 0), RunOracle(sc, 20000)
		if len(in.Tuples) < len(all.Tuples) {
			windowed++
		}
	}
	t.Logf("the 20,000 ns window drops pairs on %d of 32 seeds", windowed)
	if windowed < 16 {
		t.Errorf("the 20,000 ns window drops pairs on %d of 32 seeds", windowed)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []Spec{
		{Seed: 42, Variant: RefVariant, Check: "puncts", Prefix: -1},
		{Seed: 7, Variant: Variant{Op: "pjoin", Chunk: 512, Fault: true},
			Check: "results", Prefix: 57, Drop: []int{3, 9, 14}},
		{Seed: 9, Variant: Variant{Op: "pjoin", Window: 20000, Scramble: true}, Check: "results", Prefix: -1},
	}
	for _, s := range specs {
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("spec round-trip: %q -> %+v, want %+v", s.String(), back, s)
		}
	}
	// Replay specs recorded against rows the matrix no longer enumerates
	// (every chunk=65536 combination but two) still parse and run.
	old, err := ParseSpec("seed=4 variant=pjoin/chunk=65536/fault check=results")
	if err != nil || old.Variant.Chunk != 64<<10 {
		t.Errorf("off-matrix spec: %+v, %v", old, err)
	}
	if _, err := ParseSpec("seed=x"); err == nil {
		t.Error("bad seed accepted")
	}
	if _, err := ParseSpec("variant=nope"); err == nil {
		t.Error("bad variant accepted")
	}
	// The index axis is gone from the grammar with the scan regime, the
	// shard axis with the sharded rows and the cache axis with the spill
	// cache: a spec recorded against any of them names a configuration
	// that no longer exists.
	for _, retired := range []string{"idx", "shards=2", "cache"} {
		if _, err := ParseVariant("pjoin/" + retired); err == nil || !strings.Contains(err.Error(), `bad variant part "`+retired+`"`) {
			t.Errorf("retired %s token: err = %v, want bad variant part", retired, err)
		}
	}
}

// TestShrinkMinimizes drives the shrinker core with a synthetic
// predicate — "the failure needs arrivals 10 and 20 both present" —
// and requires it to find exactly that minimum: prefix 21, everything
// else dropped.
func TestShrinkMinimizes(t *testing.T) {
	d := Divergence{Variant: RefVariant, Check: "results"}
	calls := 0
	spec := shrinkWith(99, d, 200, func(prefix int, drop []int) bool {
		calls++
		if prefix < 0 {
			prefix = 200
		}
		alive := func(i int) bool {
			if i >= prefix {
				return false
			}
			for _, dr := range drop {
				if dr == i {
					return false
				}
			}
			return true
		}
		return alive(10) && alive(20)
	})
	if spec.Prefix != 21 {
		t.Fatalf("shrunk prefix = %d, want 21", spec.Prefix)
	}
	if got := spec.Prefix - len(spec.Drop); got != 2 {
		t.Fatalf("kept %d arrivals, want 2 (spec %s)", got, spec)
	}
	for _, dr := range spec.Drop {
		if dr == 10 || dr == 20 {
			t.Fatalf("dropped a required arrival: %s", spec)
		}
	}
	if calls > 600 {
		t.Fatalf("shrinker used %d predicate calls for n=200", calls)
	}
	// A non-reproducing divergence comes back unshrunk with the seed pinned.
	unshrunk := shrinkWith(7, d, 50, func(int, []int) bool { return false })
	if unshrunk.Prefix != -1 || unshrunk.Drop != nil || unshrunk.Seed != 7 {
		t.Fatalf("non-reproducing shrink = %+v", unshrunk)
	}
}

// TestCheckOrder holds the order check to its two rules on hand-built
// outputs: a result after a punctuation that matches it, and EOS
// anywhere but once at the end, are breaches; a result the punctuation
// does not match, or one before it, is not.
func TestCheckOrder(t *testing.T) {
	res := func(k int64) stream.Item {
		return stream.TupleItem(stream.MustTuple(resultSchema, 1, value.Int(k), value.Str("a"), value.Int(k), value.Str("b")))
	}
	p := stream.PunctItem(punct.MustKeyOnly(4, 2, punct.Const(value.Int(1))), 1)
	eos := stream.EOSItem(2)
	for _, c := range []struct {
		items  []stream.Item
		breach string
	}{
		{[]stream.Item{res(1), p, res(2), eos}, ""},
		{[]stream.Item{res(2), p, res(1), eos}, "follows"},
		{[]stream.Item{p, eos, res(2)}, "EOS is item 1 of 3"},
		{[]stream.Item{p, eos, eos}, "EOS is item 1 of 3"},
		{[]stream.Item{res(2), p}, "does not end in EOS"},
		{nil, "does not end in EOS"},
	} {
		got := checkOrder(c.items)
		if (c.breach == "") != (got == "") || !strings.Contains(got, c.breach) {
			t.Errorf("checkOrder(%v) = %q, want a breach containing %q", c.items, got, c.breach)
		}
	}
}

// TestCheckLicensed pins seed 4 against a PJoin whose output form puts
// port-1 punctuations at offset 0, as if B's columns were A's. Every
// variant would share that bug, and the order check still passes (B's
// promise on a key is one on A's key too), so only checkLicensed sees
// it. Under that mutation of core.OutputPunctuation, 16 of the first 32
// seeds fail the check and none fails any other.
func TestCheckLicensed(t *testing.T) {
	sc := FromSeed(4)
	for _, misplace := range []bool{false, true} {
		sink := &op.Collector{}
		emit := op.EmitterFunc(func(it stream.Item) error {
			p := it.Punct
			if misplace && it.Kind == stream.KindPunct &&
				p.PatternAt(0).Kind() == punct.Wildcard && p.PatternAt(1).Kind() == punct.Wildcard {
				it.Punct = punct.MustNew(p.PatternAt(2), p.PatternAt(3), punct.Star(), punct.Star())
			}
			return sink.Emit(it)
		})
		j, err := build(sc, RefVariant, emit, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := drive(j, sc, RefVariant)
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		out.summarize(sink.Items)
		if out.Order != "" {
			t.Errorf("misplace=%v: order check: %s", misplace, out.Order)
		}
		if got := checkLicensed(sc, out.Puncts); (got != "") != misplace {
			t.Errorf("misplace=%v: checkLicensed = %q", misplace, got)
		}
	}
}

var resultSchema = stream.MustSchema("out", stream.Field{Name: "ka", Kind: value.KindInt}, stream.Field{Name: "a", Kind: value.KindString},
	stream.Field{Name: "kb", Kind: value.KindInt}, stream.Field{Name: "b", Kind: value.KindString})
