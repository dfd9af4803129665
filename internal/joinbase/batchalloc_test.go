package joinbase

import (
	"testing"

	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// TestBatchedProbeRunDoesNotAllocate pins the batched hot path to the
// zero-alloc budget: a batch-shaped run of probes served through the
// seq-guarded memoizing probe — a miss after an insert, then hits —
// performs no allocation at batch length 8. The miss memoizes into the
// per-Base scratch.
func TestBatchedProbeRunDoesNotAllocate(t *testing.T) {
	base := benchBase(&testing.B{})
	for i := 0; i < 256; i++ {
		tp := stream.MustTuple(benchSchemaB, stream.Time(i+1),
			value.Int(int64(i)), value.Str("x"))
		if _, err := base.States[1].Insert(tp); err != nil {
			t.Fatal(err)
		}
	}
	probe := stream.MustTuple(benchSchemaA, 1<<40, value.Int(1<<30), value.Str("p"))
	// Warm up the scratch buffers to steady state.
	if _, err := base.ProbeOpposite(0, probe); err != nil {
		t.Fatal(err)
	}
	other := stream.MustTuple(benchSchemaB, 1<<40, value.Int(1<<31), value.Str("y"))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := base.States[1].Insert(other); err != nil { // the state moves: the next probe misses
			t.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			if _, err := base.ProbeOpposite(0, probe); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("batched probe run allocates %.1f objects per 8-probe batch, want 0", allocs)
	}
}
