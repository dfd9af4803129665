package xjoin

import (
	"testing"

	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// latencyConfig exercises both emit paths: memory probes plus a spill +
// final disk pass (low memory threshold).
func latencyConfig() Config {
	return Config{
		SchemaA: schemaA, SchemaB: schemaB,
		AttrA: 0, AttrB: 0,
		NumBuckets:  8,
		MemoryBytes: 256,
	}
}

// TestLatencyReconciliation is the histogram-count contract for XJoin:
// one Result sample per emitted result across memory and disk-pass emit
// paths; PunctDelay and Purge stay empty (XJoin neither propagates nor
// purges — the empty histograms are the baseline's story).
func TestLatencyReconciliation(t *testing.T) {
	t.Run("indexed", func(t *testing.T) {
		sink := &op.Collector{}
		x, err := New(latencyConfig(), sink)
		if err != nil {
			t.Fatal(err)
		}
		var items []feedItem
		ts := stream.Time(1)
		for k := int64(0); k < 40; k++ {
			items = append(items, tupA(k%8, "a", ts))
			ts++
			items = append(items, tupB(k%8, "b", ts))
			ts++
		}
		run(t, x, items)

		m := x.Metrics()
		lat := x.Latencies()
		if m.TuplesOut == 0 || m.Relocations == 0 || m.DiskPasses == 0 {
			t.Fatalf("workload vacuous (no spill exercised): %+v", m)
		}
		if lat.Result.Count != m.TuplesOut {
			t.Errorf("Result samples %d != TuplesOut %d", lat.Result.Count, m.TuplesOut)
		}
		var results int64
		for _, it := range sink.Items {
			if it.Kind == stream.KindTuple {
				results++
			}
		}
		if lat.Result.Count != results {
			t.Errorf("Result samples %d != collected results %d", lat.Result.Count, results)
		}
		if lat.PunctDelay.Count != 0 || lat.Purge.Count != 0 {
			t.Errorf("XJoin recorded PunctDelay=%d Purge=%d samples, want 0/0",
				lat.PunctDelay.Count, lat.Purge.Count)
		}
		// Disk-pass results carry positive latency (the spilled partner
		// waited); the distribution must reflect that.
		if lat.Result.Max <= 0 {
			t.Errorf("max result latency = %d, want > 0 (disk-pass results wait)", lat.Result.Max)
		}
	})
}

// TestProbeWalkIsBucketOccupancy holds XJoin's one table-walk counter to
// its definition: every memory probe adds the occupancy of the opposite
// bucket it resolved in — what a chained bucket walked end to end would
// examine — read off the state just before the call, while spills keep
// emptying buckets under it.
func TestProbeWalkIsBucketOccupancy(t *testing.T) {
	x, err := New(latencyConfig(), &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	var items []feedItem
	ts := stream.Time(1)
	for k := int64(0); k < 120; k++ {
		items = append(items, tupA(k%13, "a", ts), tupB((k*5)%13, "b", ts+1))
		ts += 2
	}
	for i, fi := range items {
		opp := x.base.States[1-fi.port]
		want := int64(opp.Bucket(opp.BucketOf(fi.item.Tuple.Values[0])).MemLen())
		before := x.Metrics()
		if err := x.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
		m := x.Metrics()
		if got := m.ProbeWalk - before.ProbeWalk; got != want {
			t.Fatalf("item %d: ProbeWalk grew by %d, the probed bucket held %d", i, got, want)
		}
		if m.Examined > m.ProbeWalk {
			t.Fatalf("item %d: Examined %d > ProbeWalk %d", i, m.Examined, m.ProbeWalk)
		}
	}
	if m := x.Metrics(); m.Relocations == 0 || m.ProbeWalk <= m.Examined || m.PurgeWalk != 0 || m.IndexWalk != 0 {
		t.Errorf("want a spilling run whose buckets hold several keys, and no purge or index walk: %+v", m)
	}
}
