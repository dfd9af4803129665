package parallel

import (
	"testing"

	"pjoin/internal/gen"
	"pjoin/internal/obs"
	"pjoin/internal/obs/span"
	"pjoin/internal/op"
	"pjoin/internal/oracle/spancheck"
)

// TestObsShardEvents checks the sharded join's trace over the fixed
// stream PJoin and XJoin reconcile on: the one reconciliation table
// (spancheck.Check) holds across two shards, the router emits one route
// span per admitted tuple, the merger one join-wide punct_emit per
// forwarded punctuation, and every shard-originated span carries its
// shard index so a trace can be demultiplexed offline.
func TestObsShardEvents(t *testing.T) {
	arrs := spancheck.Stream()
	sum := gen.Summarize(arrs)

	const shards = 2
	rec := &span.Recorder{}
	cfg := baseConfig()
	cfg.Thresholds.MemoryBytes = 256
	sink := &op.Collector{}
	j, err := New(Config{Shards: shards, Join: cfg, Instr: obs.NewInstr(rec, nil, "sharded")}, sink)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, j, arrs)
	m := j.Metrics()
	if m.Relocations == 0 || m.DiskPasses == 0 || m.PurgeRuns == 0 || m.PunctsOut == 0 {
		t.Fatalf("workload missed a traced path: %+v", m)
	}
	for _, d := range spancheck.Check(rec.Spans(), m, spancheck.Opts{Shards: shards, Admitted: true}) {
		t.Error(d)
	}

	wantTuples := int64(sum.Tuples[0] + sum.Tuples[1])
	if got := rec.Count(span.KindTupleRoute); got != wantTuples {
		t.Errorf("route spans: got %d, want one per tuple (%d)", got, wantTuples)
	}
	// Route spans name the target shard; every shard must have been hit.
	// Shard-side spans (arrivals, probes, purges...) are stamped with
	// their shard index and the derived operator name; router and merger
	// spans are not shard-stamped.
	hit := map[int64]bool{}
	perShard := map[int32]int64{}
	var merged, shardProbes, shardArrives int64
	for _, s := range rec.Spans() {
		switch s.Kind {
		case span.KindTupleRoute:
			if s.N < 0 || s.N >= shards {
				t.Fatalf("route span targets shard %d, want 0..%d", s.N, shards-1)
			}
			hit[s.N] = true
			if s.Shard >= 0 {
				t.Fatalf("router span %v stamped with shard %d", s.Kind, s.Shard)
			}
		case span.KindTupleProbe, span.KindPurgeRun, span.KindRelocate, span.KindPunctPurgeMem, span.KindPassEnd:
			if s.Shard < 0 || s.Shard >= shards {
				t.Fatalf("shard span %v has shard %d, want 0..%d", s.Kind, s.Shard, shards-1)
			}
			perShard[s.Shard]++
			if s.Kind == span.KindTupleProbe {
				shardProbes++
			}
		case span.KindPunctArrive:
			if s.Shard >= 0 {
				shardArrives++
			}
		case span.KindPunctEmit:
			if s.Shard < 0 {
				merged++
				if s.N != shards {
					t.Fatalf("merger's terminal span counts %d shards, want %d", s.N, shards)
				}
			}
		}
	}
	if len(hit) != shards || len(perShard) != shards {
		t.Errorf("route spans hit %d shards, shard-stamped spans came from %d, want all %d", len(hit), len(perShard), shards)
	}
	if merged != m.PunctsOut {
		t.Errorf("join-wide emit spans: got %d, want one per forwarded punctuation (%d)", merged, m.PunctsOut)
	}
	// Each tuple goes to exactly one shard; punctuations fan out to all.
	if shardProbes != wantTuples {
		t.Errorf("shard tuple arrivals: got %d, want %d", shardProbes, wantTuples)
	}
	if want := int64(sum.Puncts[0]+sum.Puncts[1]) * shards; shardArrives != want {
		t.Errorf("shard punct arrivals: got %d, want %d (stream puncts x shards)", shardArrives, want)
	}
}
