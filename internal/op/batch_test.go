package op

import (
	"errors"
	"testing"

	"pjoin/internal/stream"
	"pjoin/internal/value"
)

var batchSchema = stream.MustSchema("bt",
	stream.Field{Name: "k", Kind: value.KindInt},
)

func batchItems(n int) []stream.Item {
	out := make([]stream.Item, n)
	for i := range out {
		out[i] = stream.TupleItem(stream.MustTuple(batchSchema,
			stream.Time(i+1), value.Int(int64(i))))
	}
	return out
}

// callLog is an Operator that records how it was driven; the batched
// variant also implements BatchProcessor.
type callLog struct {
	perItem []stream.Time // now of each Process call
	batches []int         // len of each ProcessBatch call
	nows    []stream.Time // now of each ProcessBatch call
	fail    error
}

func (c *callLog) Name() string                     { return "call-log" }
func (c *callLog) NumPorts() int                    { return 1 }
func (c *callLog) OutSchema() *stream.Schema        { return batchSchema }
func (c *callLog) OnIdle(stream.Time) (bool, error) { return false, nil }
func (c *callLog) Finish(stream.Time) error         { return nil }

func (c *callLog) Process(port int, it stream.Item, now stream.Time) error {
	c.perItem = append(c.perItem, now)
	return c.fail
}

type batchLog struct{ callLog }

func (c *batchLog) ProcessBatch(port int, items []stream.Item, now stream.Time) error {
	c.batches = append(c.batches, len(items))
	c.nows = append(c.nows, now)
	return c.fail
}

func TestProcessAllDispatchesToBatchProcessor(t *testing.T) {
	o := &batchLog{}
	its := batchItems(5)
	if err := ProcessAll(o, 0, its); err != nil {
		t.Fatal(err)
	}
	if len(o.batches) != 1 || o.batches[0] != 5 {
		t.Fatalf("batches = %v, want one batch of 5", o.batches)
	}
	if len(o.perItem) != 0 {
		t.Fatalf("per-item Process called %d times on a BatchProcessor", len(o.perItem))
	}
	// now is the last item's timestamp: the whole batch obeys the
	// non-decreasing clock rule as a unit.
	if o.nows[0] != its[len(its)-1].Ts {
		t.Errorf("batch now = %d, want last item ts %d", o.nows[0], its[len(its)-1].Ts)
	}
}

func TestProcessAllFallsBackPerItem(t *testing.T) {
	o := &callLog{}
	its := batchItems(4)
	if err := ProcessAll(o, 0, its); err != nil {
		t.Fatal(err)
	}
	if len(o.perItem) != 4 {
		t.Fatalf("Process called %d times, want 4", len(o.perItem))
	}
	for i, now := range o.perItem {
		if now != its[i].Ts {
			t.Errorf("call %d: now = %d, want item ts %d", i, now, its[i].Ts)
		}
	}
}

func TestProcessAllEmptyAndErrors(t *testing.T) {
	if err := ProcessAll(&batchLog{}, 0, nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := ProcessAll(&batchLog{callLog{fail: boom}}, 0, batchItems(2)); !errors.Is(err, boom) {
		t.Errorf("batched err = %v", err)
	}
	o := &callLog{fail: boom}
	if err := ProcessAll(o, 0, batchItems(3)); !errors.Is(err, boom) {
		t.Errorf("per-item err = %v", err)
	}
	if len(o.perItem) != 1 {
		t.Errorf("per-item fallback kept going after an error: %d calls", len(o.perItem))
	}
}

func TestCollectorGrowAndEmitBatch(t *testing.T) {
	var c Collector
	c.Grow(4)
	if len(c.Items) != 0 || cap(c.Items) != 256 {
		t.Fatalf("after Grow(4): len=%d cap=%d, want 0 and 256", len(c.Items), cap(c.Items))
	}
	if err := c.EmitBatch(batchItems(3)); err != nil {
		t.Fatal(err)
	}
	if err := c.EmitBatch(nil); err != nil {
		t.Fatal(err)
	}
	if len(c.Items) != 3 {
		t.Fatalf("collected %d items, want 3", len(c.Items))
	}
	// Growth must be geometric: a long run of 1-item batches may copy
	// the backing array only O(log n) times, not once per batch. An
	// exact-fit Grow turns sink collection quadratic (this hung a
	// two-source → PJoin → sink pipeline the size of benchmark/'s
	// fanout_item_sat before the geometric rule).
	copies := 0
	for i := 0; i < 10_000; i++ {
		before := cap(c.Items)
		c.Grow(1)
		if cap(c.Items) != before {
			copies++
			if n := cap(c.Items); n < 2*before || n&(n-1) != 0 {
				t.Fatalf("Grow(1) at cap %d grew to %d, want a power of two >= %d", before, n, 2*before)
			}
		}
		c.Items = append(c.Items, stream.Item{})
	}
	if copies > 20 {
		t.Errorf("10k 1-item grows copied the array %d times, want O(log n)", copies)
	}
}

// TestCollectorBatchEmitDoesNotAllocate pins the batched sink budget:
// once the collector has capacity, Grow + EmitBatch append without
// allocating — the per-batch cost the exec sink pays.
func TestCollectorBatchEmitDoesNotAllocate(t *testing.T) {
	var c Collector
	batch := batchItems(8)
	c.Grow(100 * len(batch))
	allocs := testing.AllocsPerRun(100, func() {
		c.Items = c.Items[:0]
		c.Grow(len(batch))
		if err := c.EmitBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("batched emit allocates %.1f objects per batch, want 0", allocs)
	}
}
