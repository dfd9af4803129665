package oracle

import (
	"testing"

	"pjoin/internal/gen"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// TestPurgePlanAdversarial property-checks punct.Set.PurgePlan against
// a brute-force model, over the same adversarial mixed pattern streams
// the oracle's generator feeds the joins: interleaved constants, enums,
// prefix ranges, wildcards, and off-attribute (non-exhaustive)
// punctuations, at every `after` watermark.
//
// The contract under test: a key value is covered by the plan (member
// of the direct list, or matched by a scan entry's pattern) exactly
// when some entry with PID > after is exhaustive on the attribute and
// its pattern matches the value. Unsound coverage purges live state
// (lost results); incomplete coverage strands purgeable tuples (the
// root of the stuck-memory bug the oracle's seed 42 exposed).
func TestPurgePlanAdversarial(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		sc := FromSeed(seed)
		for side := 0; side < 2; side++ {
			set := punct.NewKeyedSet(gen.KeyAttr, true)
			var entries []*punct.Entry
			maxKey := int64(0)
			for _, a := range sc.Arrivals {
				switch a.Item.Kind {
				case stream.KindTuple:
					if a.Port == side {
						if k := a.Item.Tuple.Values[gen.KeyAttr].IntVal(); k > maxKey {
							maxKey = k
						}
					}
				case stream.KindPunct:
					if a.Port != side {
						continue
					}
					e, err := set.Add(a.Item.Punct)
					if err != nil {
						t.Fatalf("seed %d side %d: %v", seed, side, err)
					}
					entries = append(entries, e)
				}
			}
			if len(entries) == 0 {
				continue
			}
			afters := []punct.PID{punct.NoPID, entries[0].PID,
				entries[len(entries)/2].PID, set.MaxPID()}
			for _, after := range afters {
				direct, scan := set.PurgePlan(gen.KeyAttr, after)
				inDirect := map[value.Key]bool{}
				for _, v := range direct {
					inDirect[v.Key()] = true
				}
				for k := int64(0); k <= maxKey+2; k++ {
					v := value.Int(k)
					planned := inDirect[v.Key()]
					for _, e := range scan {
						if e.P.PatternAt(gen.KeyAttr).Matches(v) {
							planned = true
							break
						}
					}
					want := false
					for _, e := range entries {
						if e.PID <= after || !exhaustiveOnKey(e.P) {
							continue
						}
						if e.P.PatternAt(gen.KeyAttr).Matches(v) {
							want = true
							break
						}
					}
					if planned != want {
						t.Fatalf("seed %d side %d after=%d key=%d: plan covers=%v, model says %v\n(direct=%d scan=%d entries=%d)",
							seed, side, after, k, planned, want, len(direct), len(scan), len(entries))
					}
				}
			}
		}
	}
}

// exhaustiveOnKey mirrors the planner's exhaustiveness rule: the
// punctuation has purge power on the key attribute only if every other
// attribute's pattern is a wildcard (a constraint elsewhere means
// matching the key does not imply matching the punctuation).
func exhaustiveOnKey(p punct.Punctuation) bool {
	for i := 0; i < p.Width(); i++ {
		if i == gen.KeyAttr {
			continue
		}
		if p.PatternAt(i).Kind() != punct.Wildcard {
			return false
		}
	}
	return true
}
