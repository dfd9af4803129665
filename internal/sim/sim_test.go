package sim

import (
	"testing"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/store"
	"pjoin/internal/stream"
)

func workload(t *testing.T, dur stream.Time, punctMean float64) []gen.Arrival {
	t.Helper()
	arrs, err := gen.Synthetic(gen.Config{
		Seed:     42,
		Duration: dur,
		A:        gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: punctMean},
		B:        gen.SideSpec{TupleMean: 2 * stream.Millisecond, PunctMean: punctMean},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Validate(arrs); err != nil {
		t.Fatal(err)
	}
	return arrs
}

func newPJoin(t *testing.T, cfg core.Config) *core.PJoin {
	t.Helper()
	cfg.SchemaA, cfg.SchemaB = gen.SchemaA, gen.SchemaB
	cfg.AttrA, cfg.AttrB = gen.KeyAttr, gen.KeyAttr
	j, err := core.New(cfg, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, nil, Config{}); err == nil {
		t.Error("nil operator should error")
	}
	arrs := workload(t, 100*stream.Millisecond, 10)
	j := newPJoin(t, core.Config{})
	// Duplicate timestamps rejected.
	bad := append([]gen.Arrival{}, arrs...)
	bad = append(bad, bad[len(bad)-1])
	if _, err := Run(j, bad, Config{}); err == nil {
		t.Error("non-increasing timestamps should error")
	}
}

func TestSimProducesSamplesAndResults(t *testing.T) {
	arrs := workload(t, 5000*stream.Millisecond, 10)
	j := newPJoin(t, core.Config{})
	res, err := Run(j, arrs, Config{SampleEvery: 500 * stream.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 8 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	if res.Final.TuplesOut == 0 {
		t.Error("no join results")
	}
	if res.WorkTime <= 0 || res.Done <= 0 {
		t.Errorf("work=%d done=%d", res.WorkTime, res.Done)
	}
	// Samples are monotone in time and cumulative outputs.
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].T <= res.Samples[i-1].T {
			t.Fatal("sample times not increasing")
		}
		if res.Samples[i].TuplesOut < res.Samples[i-1].TuplesOut {
			t.Fatal("cumulative output decreased")
		}
	}
}

func TestSimDeterministic(t *testing.T) {
	arrs := workload(t, 2000*stream.Millisecond, 10)
	r1, err := Run(newPJoin(t, core.Config{}), arrs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(newPJoin(t, core.Config{}), arrs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Done != r2.Done || r1.WorkTime != r2.WorkTime || r1.Final.TuplesOut != r2.Final.TuplesOut {
		t.Error("simulation not deterministic")
	}
}

// The headline claim (paper Fig. 5): PJoin's state stays bounded while
// XJoin's grows with the stream.
func TestPJoinStateSmallerThanXJoin(t *testing.T) {
	arrs := workload(t, 20_000*stream.Millisecond, 40)

	pj := newPJoin(t, core.Config{})
	resP, err := Run(pj, arrs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	xj, err := core.NewXJoin(core.Config{
		SchemaA: gen.SchemaA, SchemaB: gen.SchemaB,
	}, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	resX, err := Run(xj, arrs, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Same results from both joins.
	if resP.Final.TuplesOut != resX.Final.TuplesOut {
		t.Fatalf("result counts differ: pjoin %d, xjoin %d", resP.Final.TuplesOut, resX.Final.TuplesOut)
	}
	// XJoin's final state holds everything; PJoin's is a small fraction.
	lastP := resP.Samples[len(resP.Samples)-2] // before the EOS flush
	lastX := resX.Samples[len(resX.Samples)-2]
	if lastP.StateTuples*5 > lastX.StateTuples {
		t.Errorf("PJoin state %d not ≪ XJoin state %d", lastP.StateTuples, lastX.StateTuples)
	}
	// XJoin's state grows monotonically with time (no purging).
	mid := resX.Samples[len(resX.Samples)/2]
	if lastX.StateTuples <= mid.StateTuples {
		t.Errorf("XJoin state did not grow: mid %d, last %d", mid.StateTuples, lastX.StateTuples)
	}
}

// Paper Fig. 6: the PJoin state grows with the punctuation inter-arrival.
func TestStateGrowsWithPunctuationInterArrival(t *testing.T) {
	var avg [3]float64
	for i, pm := range []float64{10, 20, 30} {
		arrs := workload(t, 20_000*stream.Millisecond, pm)
		res, err := Run(newPJoin(t, core.Config{}), arrs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var sum int
		for _, s := range res.Samples {
			sum += s.StateTuples
		}
		avg[i] = float64(sum) / float64(len(res.Samples))
	}
	if !(avg[0] < avg[1] && avg[1] < avg[2]) {
		t.Errorf("average state sizes not ordered by inter-arrival: %v", avg)
	}
}

func TestSimWithSpillingCharge(t *testing.T) {
	spillA, spillB := store.NewMemSpill(), store.NewMemSpill()
	cfg := core.Config{
		SpillA: spillA, SpillB: spillB,
		NumBuckets: 8,
	}
	cfg.Thresholds.MemoryBytes = 4 << 10 // 4 KiB: forces relocation
	cfg.Thresholds.DiskJoinIdle = 10 * stream.Millisecond
	j := newPJoin(t, cfg)
	arrs := workload(t, 5_000*stream.Millisecond, 0) // no punctuations: state builds up
	res, err := Run(j, arrs, Config{Spills: []store.SpillStore{spillA, spillB}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.Relocations == 0 {
		t.Fatal("no relocations; threshold too high for this workload")
	}
	if res.IO.BytesWritten == 0 {
		t.Error("spill I/O not accounted")
	}
}

func TestLagAppearsWhenOverloaded(t *testing.T) {
	// Make probing brutally expensive so the join cannot keep up.
	costs := DefaultCosts()
	costs.PerProbe = 500_000 // 0.5 ms per examined tuple
	arrs := workload(t, 5_000*stream.Millisecond, 0)
	cfg := core.Config{NumBuckets: 2}
	j := newPJoin(t, cfg)
	res, err := Run(j, arrs, Config{Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Samples[len(res.Samples)-1]
	if last.Lag == 0 {
		t.Error("overloaded operator shows no lag")
	}
	if res.Done <= arrs[len(arrs)-1].Item.Ts {
		t.Error("overloaded run should finish after the last arrival")
	}
}

// The cost model must actually charge purge invocations: the same run
// with a higher PerPurgeRun must finish later.
func TestPurgeRunCostCharged(t *testing.T) {
	arrs := workload(t, 2_000*stream.Millisecond, 10)
	cheap := DefaultCosts()
	cheap.PerPurgeRun = 0
	dear := DefaultCosts()
	dear.PerPurgeRun = 10_000_000 // 10ms per purge

	r1, err := Run(newPJoin(t, core.Config{}), arrs, Config{Costs: cheap})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(newPJoin(t, core.Config{}), arrs, Config{Costs: dear})
	if err != nil {
		t.Fatal(err)
	}
	if r2.WorkTime <= r1.WorkTime {
		t.Errorf("purge-run cost not charged: %d vs %d", r1.WorkTime, r2.WorkTime)
	}
	if r1.Final.PurgeRuns == 0 {
		t.Error("no purge runs recorded")
	}
}
