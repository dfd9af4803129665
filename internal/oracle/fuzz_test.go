package oracle

import "testing"

// fuzzVariants is the diverse slice of the matrix each fuzz input is
// checked against: full-matrix checking (CheckScenario) costs ~1s per
// input, which starves the mutation engine, so the fuzz target covers
// each mechanism once — drained and budgeted disk passes and fault
// injection — and the seed soak (TestSoak / make
// oracle) covers the cross-product.
var fuzzVariants = []Variant{
	{Op: "pjoin"},
	{Op: "pjoin", Chunk: 512},
	{Op: "pjoin", Chunk: 512, Fault: true},
	{Op: "xjoin", Chunk: 512},
}

// FuzzOracle feeds raw fuzz bytes through the same scenario decoder as
// the seeded soak (the bytes steer generation directly; the PRNG picks
// up where they run out) and differential-checks the decoded workload.
// Any reported divergence is a real bug, not a malformed input: the
// decoder only emits schedules that pass Scenario.Validate, and the
// target re-validates to keep the generator itself honest under
// mutation.
func FuzzOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03})
	f.Add([]byte("range-heavy \x1b\x1b\x1b\x1b\x1b\x1b"))
	f.Add([]byte{0xff, 0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01, 0x00, 0xaa, 0x55})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return // entropy beyond the decoder's appetite just repeats coverage
		}
		sc := FromBytes(data)
		ref, punctRef, ds := checkPrologue(sc)
		if ds != nil {
			t.Fatalf("input %x:\n%s", data, Report(ds))
		}
		for _, v := range fuzzVariants {
			if ds := checkVariant(sc, v, ref, punctRef); len(ds) != 0 {
				t.Fatalf("input %x:\n%s", data, Report(ds))
			}
		}
	})
}
