package core

import (
	"testing"

	"pjoin/internal/obs/span"
	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// TestLatencyReconciliation is the histogram-count contract for PJoin:
// exactly one Result sample per emitted result tuple, one PunctDelay
// sample per propagated punctuation, one Purge sample per purge run —
// no double counting across the memory-probe, disk-pass and Finish
// emit paths.
func TestLatencyReconciliation(t *testing.T) {
	t.Run("indexed", func(t *testing.T) {
		cfg := obsConfig(&span.Recorder{})
		sink := &op.Collector{}
		j, err := New(cfg, sink)
		if err != nil {
			t.Fatal(err)
		}
		run(t, j, obsWorkload())

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
		// The emitted-result count in the sink is the ground truth.
		var results int64
		for _, it := range sink.Items {
			if it.Kind == stream.KindTuple {
				results++
			}
		}
		if lat.Result.Count != results {
			t.Errorf("Result samples %d != collected results %d", lat.Result.Count, results)
		}
	})
}

// TestXJoinLatencyReconciliation is the same contract for XJoin: one
// Result sample per emitted result across the memory and disk-pass emit
// paths; PunctDelay and Purge stay empty (XJoin neither propagates nor
// purges — the empty histograms are the baseline's story).
func TestXJoinLatencyReconciliation(t *testing.T) {
	t.Run("indexed", func(t *testing.T) {
		sink := &op.Collector{}
		x, err := NewXJoin(xjoinConfig(8), sink)
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
		if lat.Result.Count != m.TuplesOut || lat.Result.Count != int64(len(sink.Tuples())) {
			t.Errorf("Result samples %d, TuplesOut %d, collected results %d",
				lat.Result.Count, m.TuplesOut, len(sink.Tuples()))
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

// TestDiskLatencyReconciliation extends the histogram-count contract to
// the disk join: one DiskPass sample per completed pass and one
// DiskChunk sample per executed step, on both schedules (DiskChunkBytes
// 0 drains each pass inside the call that starts it, a positive budget
// steps it in the background). This is the regression for the sampling
// rule: a pass spanning N steps records N chunk samples AND exactly one
// end-to-end pass sample, never one per step.
func TestDiskLatencyReconciliation(t *testing.T) {
	for _, chunkBytes := range []int{0, 256} {
		name := "blocking-indexed"
		if chunkBytes > 0 {
			name = "chunked-indexed"
		}
		t.Run(name, func(t *testing.T) {
			cfg := obsConfig(&span.Recorder{})
			cfg.DiskChunkBytes = chunkBytes
			sink := &op.Collector{}
			j, err := New(cfg, sink)
			if err != nil {
				t.Fatal(err)
			}
			run(t, j, obsWorkload())

			m := j.Metrics()
			lat := j.Latencies()
			if m.DiskPasses == 0 {
				t.Fatalf("workload ran no disk passes: %+v", m)
			}
			if lat.DiskPass.Count != m.DiskPasses {
				t.Errorf("DiskPass samples %d != DiskPasses %d", lat.DiskPass.Count, m.DiskPasses)
			}
			if lat.DiskChunk.Count != m.DiskChunks {
				t.Errorf("DiskChunk samples %d != DiskChunks %d", lat.DiskChunk.Count, m.DiskChunks)
			}
			// Every pass over this relocating workload takes several
			// steps, drained or budgeted.
			if m.DiskChunks < m.DiskPasses {
				t.Errorf("%d chunks over %d passes, want at least one per pass",
					m.DiskChunks, m.DiskPasses)
			}
			// Purge sampling must be untouched by the scheduling mode.
			if lat.Purge.Count != m.PurgeRuns {
				t.Errorf("Purge samples %d != PurgeRuns %d", lat.Purge.Count, m.PurgeRuns)
			}
		})
	}
}

// TestLatencyValues pins the semantics of the recorded values on a
// hand-built workload: a memory-probe result has zero latency (the
// result's timestamp is the probing tuple's own), while a punctuation
// that must wait for the partner side's purge shows a positive delay.
func TestLatencyValues(t *testing.T) {
	cfg := obsConfig(&span.Recorder{})
	j, err := New(cfg, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	items := []feedItem{
		tupA(1, "a", 10),   // waits in state
		tupB(1, "b", 20),   // probes A: result at ts 20, latency 0
		punctFor(0, 1, 30), // A-punct: B's key-1 tuple purged; count A-side
		punctFor(1, 1, 40), // B-punct: purges A's tuple, A-punct count → 0
	}
	run(t, j, items)

	lat := j.Latencies()
	if lat.Result.Count != 1 {
		t.Fatalf("Result count = %d, want 1", lat.Result.Count)
	}
	// The probe result's latency is now − max(constituent ts) = 0.
	if lat.Result.Max != 0 {
		t.Errorf("memory-probe result latency = %d, want 0", lat.Result.Max)
	}
	if lat.PunctDelay.Count != 2 {
		t.Fatalf("PunctDelay count = %d, want 2", lat.PunctDelay.Count)
	}
	// The A-punctuation arrived at ts 30 but could only propagate once
	// the B-punctuation (ts 40) purged A's matching tuple: delay >= 10.
	if lat.PunctDelay.Max < 10 {
		t.Errorf("max punct delay = %d, want >= 10 (held until partner purge)", lat.PunctDelay.Max)
	}
}

// TestNoPropagationNoDelaySamples: with propagation disabled
// the PunctDelay histogram stays empty while purges still record.
func TestNoPropagationNoDelaySamples(t *testing.T) {
	cfg := obsConfig(&span.Recorder{})
	cfg.DisablePropagation = true
	j, err := New(cfg, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	run(t, j, obsWorkload())
	m := j.Metrics()
	lat := j.Latencies()
	if m.PunctsOut != 0 {
		t.Fatalf("propagation disabled but PunctsOut = %d", m.PunctsOut)
	}
	if lat.PunctDelay.Count != 0 {
		t.Errorf("PunctDelay samples %d, want 0", lat.PunctDelay.Count)
	}
	if lat.Purge.Count != m.PurgeRuns || lat.Purge.Count == 0 {
		t.Errorf("Purge samples %d, PurgeRuns %d (want equal, nonzero)", lat.Purge.Count, m.PurgeRuns)
	}
}
