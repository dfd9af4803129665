package parallel

import (
	"testing"

	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// TestShardedLatencyReconciliation is the histogram-count contract for
// the sharded join: the merged Result histogram holds one sample per
// result tuple the merger emitted, the router-level PunctDelay
// histogram one sample per merged (join-wide) punctuation, and the
// merged Purge histogram one sample per shard purge run.
func TestShardedLatencyReconciliation(t *testing.T) {
	gc := gen.Config{
		Seed: 7, MaxTuples: 1200, Duration: 1 << 62, WindowKeys: 12,
		A: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 15},
		B: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 15},
	}
	arrs, err := gen.Synthetic(gc)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(shardName(shards), func(t *testing.T) {
			sink := &op.Collector{}
			j, err := New(Config{Shards: shards, Join: baseConfig()}, sink)
			if err != nil {
				t.Fatal(err)
			}
			drive(t, j, arrs)

			m := j.Metrics()
			lat := j.Latencies()
			if m.TuplesOut == 0 || m.PunctsOut == 0 || m.PurgeRuns == 0 {
				t.Fatalf("workload vacuous: %+v", m)
			}
			if lat.Result.Count != m.TuplesOut {
				t.Errorf("Result samples %d != TuplesOut %d", lat.Result.Count, m.TuplesOut)
			}
			if lat.PunctDelay.Count != m.PunctsOut {
				t.Errorf("PunctDelay samples %d != PunctsOut %d", lat.PunctDelay.Count, m.PunctsOut)
			}
			if lat.Purge.Count != m.PurgeRuns {
				t.Errorf("Purge samples %d != PurgeRuns %d", lat.Purge.Count, m.PurgeRuns)
			}
			sum := summarize(sink.Items)
			var results, puncts int64
			for _, n := range sum.tuples {
				results += int64(n)
			}
			for _, n := range sum.puncts {
				puncts += int64(n)
			}
			if lat.Result.Count != results {
				t.Errorf("Result samples %d != collected results %d", lat.Result.Count, results)
			}
			if lat.PunctDelay.Count != puncts {
				t.Errorf("PunctDelay samples %d != collected punctuations %d", lat.PunctDelay.Count, puncts)
			}

			// The merged Result/Purge view is exactly the sum of the shard
			// views; shard-local PunctDelay is excluded by design (it would
			// give one sample per shard per punctuation, measuring
			// shard-local rather than join-wide delay).
			var shardResults, shardPurges int64
			for _, pj := range j.shards {
				s := pj.Latencies()
				shardResults += s.Result.Count
				shardPurges += s.Purge.Count
			}
			if shardResults != lat.Result.Count {
				t.Errorf("shard Result samples sum %d != merged %d", shardResults, lat.Result.Count)
			}
			if shardPurges != lat.Purge.Count {
				t.Errorf("shard Purge samples sum %d != merged %d", shardPurges, lat.Purge.Count)
			}
		})
	}
}

func shardName(n int) string {
	return map[int]string{1: "shards1", 2: "shards2", 4: "shards4"}[n]
}

// TestShardedLatencyNoPropagation: with propagation off the router
// registers nothing and the PunctDelay histogram stays empty.
func TestShardedLatencyNoPropagation(t *testing.T) {
	gc := gen.Config{
		Seed: 3, MaxTuples: 600, Duration: 1 << 62, WindowKeys: 8,
		A: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 12},
		B: gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: 12},
	}
	arrs, err := gen.Synthetic(gc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.DisablePropagation = true
	sink := &op.Collector{}
	j, err := New(Config{Shards: 2, Join: cfg}, sink)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, j, arrs)
	if n := j.Latencies().PunctDelay.Count; n != 0 {
		t.Errorf("PunctDelay samples = %d, want 0 with propagation disabled", n)
	}
	if j.PendingPunctuations() != 0 {
		t.Errorf("pending punctuation entries leaked: %d", j.PendingPunctuations())
	}
}
