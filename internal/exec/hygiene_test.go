package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// TestRunExitHygiene pins what Run leaves behind on each way out — clean
// drain, an operator error, external cancellation — at batch size 1 and
// 256, over a plan with an operator-fed edge: two sources → a join →
// select → sink. While it runs every spawned operator is exactly one goroutine
// (sampled in the cancel case, which idles long enough to look), no
// goroutine Run started survives it (the per-edge return lanes are free
// lists, not goroutines), and on a clean drain every batch taken was put
// back — through an edge's lane, fresh or recycled, both count in
// BatchPool.Stats, so a consumer that returned a batch to nowhere, or a
// lane that handed one out twice, shows as an imbalance (the dynamic twin
// of the poolsafe lint).
func TestRunExitHygiene(t *testing.T) {
	var a, b []stream.Item
	for i := 0; i < 300; i++ {
		k := value.Int(int64(i % 7))
		a = append(a, stream.TupleItem(stream.MustTuple(gen.SchemaA, 0, k, value.Str("a"))))
		b = append(b, stream.TupleItem(stream.MustTuple(gen.SchemaB, 0, k, value.Str("b"))))
	}
	never := []stream.Item{stream.TupleItem(stream.MustTuple(gen.SchemaA,
		stream.Time(time.Hour), value.Int(1), value.Str("never")))}
	boom := errors.New("boom")

	const spawned = 2 // the join and the select
	for _, batch := range []int{0, 256} {
		for _, exit := range []string{"drain", "error", "cancel"} {
			t.Run(fmt.Sprintf("batch%d_%s", batch, exit), func(t *testing.T) {
				base := runtime.NumGoroutine()

				p := NewPipeline()
				p.BatchSize = batch
				p.BatchLinger = time.Millisecond
				srcA, srcB, joined, out := p.Edge(), p.Edge(), p.Edge(), p.Edge()
				j, err := core.New(core.Config{SchemaA: gen.SchemaA, SchemaB: gen.SchemaB}, joined)
				if err != nil {
					t.Fatal(err)
				}
				var selOut op.Emitter = out
				if exit == "error" {
					selOut = op.EmitterFunc(func(stream.Item) error { return boom })
				}
				sel, err := op.NewSelect(j.OutSchema(), func(*stream.Tuple) bool { return true }, selOut)
				if err != nil {
					t.Fatal(err)
				}
				if exit == "cancel" {
					// A paced source an hour out keeps the pipeline alive.
					p.SourceItems(srcA, never, true)
				} else {
					p.SourceItems(srcA, a, false)
				}
				p.SourceItems(srcB, b, false)
				if err := p.Spawn(j, srcA, srcB); err != nil {
					t.Fatal(err)
				}
				if err := p.Spawn(sel, joined); err != nil {
					t.Fatal(err)
				}
				p.Sink(out)

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				drivers := make(chan int, 1)
				if exit == "cancel" {
					time.AfterFunc(20*time.Millisecond, func() {
						buf := make([]byte, 1<<20)
						drivers <- strings.Count(string(buf[:runtime.Stack(buf, true)]),
							"created by pjoin/internal/exec.(*Pipeline).Spawn")
						cancel()
					})
				}
				err = p.Run(ctx)
				if exit == "cancel" {
					// Anything Spawn's launcher starts beyond the driver —
					// a reader per port, a closer — would show here.
					if n := <-drivers; n != spawned {
						t.Errorf("%d goroutines started by Spawn while running, want one per spawned operator (%d)", n, spawned)
					}
				}
				switch exit {
				case "drain":
					if err != nil {
						t.Fatal(err)
					}
				case "error":
					if !errors.Is(err, boom) {
						t.Fatalf("err = %v, want boom", err)
					}
				case "cancel":
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("err = %v, want context.Canceled", err)
					}
				}

				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > base {
					buf := make([]byte, 1<<16)
					t.Errorf("%d goroutines after Run, want at most %d\n%s",
						n, base, buf[:runtime.Stack(buf, true)])
				}
				gets, puts := p.pool.Stats()
				if exit == "drain" && (gets != puts || gets == 0) {
					t.Errorf("pool: %d gets, %d puts after a clean run", gets, puts)
				}
				// An error or a cancel strands what was queued on the edges,
				// never more: a put without its get would be a batch
				// recycled twice.
				if puts > gets {
					t.Errorf("pool: %d puts for %d gets", puts, gets)
				}
			})
		}
	}
}
