package bench

import (
	"fmt"
	"testing"
)

// TestBench6ExecCellsReconcile runs the bench6 live pipeline at batch
// size 1, 256 with linger 0 and 256 with linger 1 ms and checks the
// invariants the sweep's numbers rest on:
// identical outputs across cells (the batch size must not change what
// the join computes), punctuation-delay histogram count == propagated
// punctuation count (every propagation is measured), batch accounting
// on every cell with fill exactly 1 where every Emit cuts (batch 1,
// linger 0), and the linger-0 punctuation p99 within the documented 2×
// of batch 1 (punctuations cut batches, so latency-neutral batching
// stays latency-neutral). The deterministic halves of the latency bound
// live in internal/exec (TestPunctuationCutsBatch,
// TestLingerBoundsTupleDelay); this test covers the wall-clock
// reconciliation.
func TestBench6ExecCellsReconcile(t *testing.T) {
	t.Run("indexed=true", func(t *testing.T) {
		rc := RunConfig{Seed: 1, Quick: true}
		perItem, err := bench6Exec(rc, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		cells := []Bench6Exec{perItem}
		for _, c := range []struct{ batch, lingerMs int }{{256, 0}, {256, 1}} {
			cell, err := bench6Exec(rc, c.batch, c.lingerMs)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, cell)
		}
		for _, c := range cells {
			name := fmt.Sprintf("batch=%d linger=%dms", c.Batch, c.LingerMs)
			if c.TuplesIn != perItem.TuplesIn || c.TuplesOut != perItem.TuplesOut ||
				c.PunctsOut != perItem.PunctsOut {
				t.Errorf("%s: in/out/puncts = %d/%d/%d, batch-1 %d/%d/%d",
					name, c.TuplesIn, c.TuplesOut, c.PunctsOut,
					perItem.TuplesIn, perItem.TuplesOut, perItem.PunctsOut)
			}
			if c.PunctDelay.Count != c.PunctsOut {
				t.Errorf("%s: PunctDelay.Count=%d, PunctsOut=%d — propagation not fully measured",
					name, c.PunctDelay.Count, c.PunctsOut)
			}
			if c.Batches <= 0 || c.BatchFillMean < 1 {
				t.Errorf("%s: batches=%d fill=%.2f — cell saw no batch accounting",
					name, c.Batches, c.BatchFillMean)
			}
			if (c.Batch <= 1 || c.LingerMs == 0) && c.BatchFillMean != 1 {
				t.Errorf("%s: fill=%.2f, want 1 — every Emit cuts a batch of one",
					name, c.BatchFillMean)
			}
		}
		// Latency-neutral claim: linger 0 cuts a batch on every emit, so
		// its punctuation-propagation p99 must stay within 2× of the
		// batch-1 run (plus absolute slack for wall-clock noise — both
		// sides are real scheduler-timed runs).
		const slackNs = 250e6
		b0 := cells[1]
		if float64(b0.PunctDelay.P99) > 2*float64(perItem.PunctDelay.P99)+slackNs {
			t.Errorf("linger-0 punct p99 = %dns, batch-1 p99 = %dns — batching broke the latency-neutral bound",
				b0.PunctDelay.P99, perItem.PunctDelay.P99)
		}
	})
}
