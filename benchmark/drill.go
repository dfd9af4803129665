package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pjoin/internal/exec"
	"pjoin/internal/gen"
	"pjoin/internal/joinbase"
	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/store"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// Drills are timed loops over one layer's public functions, on state
// shaped like the workload's. They say what one call of a layer costs in
// isolation; the traced round and the direct drive say how often it is
// called. Each drill is repeated drillReps times and reports the median.

const drillReps = 3

// drills carries the session's size factor: the tests run every loop at
// 1/50 of its iteration count.
type drills struct{ scale float64 }

// n scales an iteration count, keeping enough iterations to divide by.
func (dr drills) n(base int) int {
	if n := int(float64(base) * dr.scale); n > 16 {
		return n
	}
	return 16
}

// shape is what a drill needs to know about the workload's state.
type shape struct {
	keys     int // open join keys per side
	perKey   int // stored tuples per key (the probe's match count)
	punctSet int // entries in a punctuation set at its peak
}

// shapeOf derives the drill shape from the generator settings and the
// direct drive's peak readings.
func shapeOf(in *input, d *direct) shape {
	s := shape{keys: 16, perKey: 1, punctSet: d.peakPuncts}
	if c := in.spec.Synthetic; c != nil && c.WindowKeys > 0 {
		s.keys = c.WindowKeys
	}
	if in.spec.Auction != nil {
		// An item is open for AuctionLength and a new one opens every
		// OpenMean.
		s.keys = int(in.spec.Auction.AuctionLength / in.spec.Auction.OpenMean)
	}
	if n := d.peakState / 2 / s.keys; n > 1 {
		s.perKey = n
	}
	if s.punctSet < 1 {
		s.punctSet = 1
	}
	return s
}

// medianOf repeats a measurement drillReps times and returns the median.
// The measurement returns its own duration, so state it has to rebuild
// for every repetition stays outside the timer.
func medianOf(measure func() (time.Duration, error)) (time.Duration, error) {
	ds := make([]float64, drillReps)
	for i := range ds {
		d, err := measure()
		if err != nil {
			return 0, err
		}
		ds[i] = float64(d)
	}
	return time.Duration(median(ds)), nil
}

// timed is medianOf for a loop that needs no per-repetition set-up.
func timed(fn func() error) (time.Duration, error) {
	return medianOf(func() (time.Duration, error) {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	})
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// keyedTuples builds perKey tuples for each of keys join values, keys
// interleaved as arrivals are.
func keyedTuples(schema *stream.Schema, keys, perKey int) []*stream.Tuple {
	ts := make([]*stream.Tuple, 0, keys*perKey)
	for i := 0; i < perKey; i++ {
		for k := 0; k < keys; k++ {
			n := len(ts) + 1
			ts = append(ts, stream.MustTuple(schema, stream.Time(n), value.Int(int64(k)), value.Str(fmt.Sprintf("%s%d", schema.Name(), n))))
		}
	}
	return ts
}

// filledState returns a fresh 64-bucket state holding the tuples.
func filledState(tuples []*stream.Tuple) (*store.State, error) {
	st, err := store.NewState("drill", gen.KeyAttr, 64, store.NewMemSpill())
	if err != nil {
		return nil, err
	}
	for _, t := range tuples {
		if _, err := st.Insert(t); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// drillSink keeps drill results live.
var drillSink int

func (dr drills) store(sh shape, out map[string]float64) error {
	// Insert: build the workload-shaped state from empty.
	shaped := keyedTuples(gen.SchemaA, sh.keys, sh.perKey)
	d, err := timed(func() error {
		st, err := filledState(shaped)
		if err == nil {
			drillSink += st.Stats().MemTuples
		}
		return err
	})
	if err != nil {
		return err
	}
	out["store.insert_ns"] = nsPer(d, len(shaped))

	for _, g := range []struct {
		name   string
		perKey int
	}{{"store.probe_ns_g26", 26}, {"store.probe_ns_g1", 1}} {
		st, err := filledState(keyedTuples(gen.SchemaA, sh.keys, g.perKey))
		if err != nil {
			return err
		}
		probes := dr.n(200_000)
		dst := make([]*store.StoredTuple, 0, 32)
		d, _ := timed(func() error {
			for i := 0; i < probes; i++ {
				dst, _ = st.ProbeMem(value.Int(int64(i%sh.keys)), dst[:0])
			}
			return nil
		})
		drillSink += len(dst)
		out[g.name] = nsPer(d, probes)
	}

	st, err := filledState(shaped)
	if err != nil {
		return err
	}
	var mp store.MemProbe
	cached := dr.n(1_000_000)
	d, _ = timed(func() error {
		for i := 0; i < cached; i++ {
			m, _ := st.ProbeMemCached(value.Int(3), &mp)
			drillSink += len(m)
		}
		return nil
	})
	out["store.probe_cached_ns"] = nsPer(d, cached)

	// TakeKeyGroup: the constant-punctuation purge path, one group per
	// call until the state is empty.
	take, err := medianOf(func() (time.Duration, error) {
		st, err := filledState(shaped)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for k := 0; k < sh.keys; k++ {
			_, removed := st.TakeKeyGroup(value.Int(int64(k)))
			drillSink += len(removed)
		}
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	out["store.take_key_group_ns"] = nsPer(take, sh.keys)

	// Spill every bucket of a filled state, then scan it back in 64 KiB
	// chunks (read + decode), as a disk pass does.
	spillable := keyedTuples(gen.SchemaA, 512, 8)
	var spilled *store.State
	spill, err := medianOf(func() (time.Duration, error) {
		st, err := filledState(spillable)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for b := 0; b < st.NumBuckets(); b++ {
			if _, err := st.SpillBucket(b, stream.Time(1<<40)); err != nil {
				return 0, err
			}
		}
		spilled = st
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	scan, err := timed(func() error {
		var dst []*store.StoredTuple
		for b := 0; b < spilled.NumBuckets(); b++ {
			ds, err := spilled.OpenDiskScan(b)
			if err != nil {
				return err
			}
			if ds == nil {
				continue
			}
			for done := false; !done; {
				if dst, done, err = ds.Next(64<<10, dst[:0]); err != nil {
					return err
				}
			}
			if err := spilled.FinishDiskScan(ds, nil, false); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	kib := float64(spilled.Stats().DiskBytes) / 1024
	out["store.spill_bucket_us"] = nsPer(spill, 64) / 1e3
	out["store.scan_us_per_kib"] = float64(scan.Nanoseconds()) / 1e3 / kib
	return nil
}

func (dr drills) joinbase(out map[string]float64) error {
	const group = 26
	a, err := filledState(nil)
	if err != nil {
		return err
	}
	b, err := filledState(keyedTuples(gen.SchemaB, 16, group))
	if err != nil {
		return err
	}
	sc, err := gen.SchemaA.Concat("join", gen.SchemaB)
	if err != nil {
		return err
	}
	results := 0
	base, err := joinbase.New(a, b, sc, func(*stream.Tuple) error { results++; return nil })
	if err != nil {
		return err
	}
	probes := dr.n(40_000)
	t := stream.MustTuple(gen.SchemaA, 1<<40, value.Int(0), value.Str("A0"))
	d, err := timed(func() error {
		results = 0
		for i := 0; i < probes; i++ {
			t.Values[0] = value.Int(int64(i % 16))
			if _, err := base.ProbeOpposite(0, t); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if results != probes*group {
		return fmt.Errorf("probe drill: %d results, want %d", results, probes*group)
	}
	out["joinbase.probe_ns_per_result"] = nsPer(d, results)
	return nil
}

func (dr drills) punct(sh shape, out map[string]float64) {
	constant := func(k int) punct.Punctuation {
		return punct.MustKeyOnly(gen.SchemaA.Width(), gen.KeyAttr, punct.Const(value.Int(int64(k))))
	}
	adds := dr.n(50_000)
	ps := make([]punct.Punctuation, adds)
	for i := range ps {
		ps[i] = constant(i)
	}
	d, _ := timed(func() error {
		s := punct.NewKeyedSet(gen.KeyAttr, false)
		for _, p := range ps {
			if _, err := s.Add(p); err != nil {
				return err
			}
		}
		drillSink += s.Len()
		return nil
	})
	out["punct.set_add_ns"] = nsPer(d, adds)

	s := punct.NewKeyedSet(gen.KeyAttr, false)
	for i := 0; i < sh.punctSet; i++ {
		_, _ = s.Add(constant(i)) // constant patterns on distinct keys cannot be rejected
	}
	lookups := dr.n(1_000_000)
	d, _ = timed(func() error {
		for i := 0; i < lookups; i++ {
			// Half the lookups hit a punctuated key, half miss, as
			// drop-on-the-fly checks do.
			if s.FirstMatchAttr(gen.KeyAttr, value.Int(int64(i%(2*sh.punctSet)))) != nil {
				drillSink++
			}
		}
		return nil
	})
	out["punct.first_match_ns"] = nsPer(d, lookups)

	plans := dr.n(200_000)
	after := s.MaxPID() - 1 // eager purge plans over the one new entry
	d, _ = timed(func() error {
		for i := 0; i < plans; i++ {
			direct, _ := s.PurgePlan(gen.KeyAttr, after)
			drillSink += len(direct)
		}
		return nil
	})
	out["punct.purge_plan_ns"] = nsPer(d, plans)
}

func (dr drills) streamValue(out map[string]float64) {
	a := stream.MustTuple(gen.SchemaA, 1, value.Int(7), value.Str("A7"))
	b := stream.MustTuple(gen.SchemaB, 2, value.Int(7), value.Str("B9"))
	joins := dr.n(1_000_000)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	d, _ := timed(func() error {
		for i := 0; i < joins; i++ {
			drillSink += a.Join(b).Width()
		}
		return nil
	})
	runtime.ReadMemStats(&ms1)
	out["stream.join_ns"] = nsPer(d, joins)
	out["stream.join_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(joins*drillReps)

	hashes := dr.n(4_000_000)
	var h uint64
	d, _ = timed(func() error {
		for i := 0; i < hashes; i++ {
			h += value.Int(int64(i)).Hash()
		}
		return nil
	})
	drillSink += int(h & 1)
	out["value.hash_ns"] = nsPer(d, hashes)
}

// hopCPU runs source -> k x Select(true) -> counting sink over items and
// returns the process CPU time of Pipeline.Run.
func hopCPU(items []stream.Item, k, batch int) (time.Duration, error) {
	p := exec.NewPipeline()
	p.BatchSize = batch
	if batch > 1 {
		p.BatchLinger = time.Millisecond
	}
	in := p.Edge()
	p.SourceItems(in, items, false)
	for i := 0; i < k; i++ {
		next := p.Edge()
		sel, err := op.NewSelect(gen.SchemaA, func(*stream.Tuple) bool { return true }, next)
		if err != nil {
			return 0, err
		}
		if err := p.Spawn(sel, in); err != nil {
			return 0, err
		}
		in = next
	}
	snk := &sink{out: discard}
	if err := p.Spawn(snk, in); err != nil {
		return 0, err
	}
	runtime.GC()
	start := cpuTime()
	if err := p.Run(context.Background()); err != nil {
		return 0, err
	}
	cpu := cpuTime() - start
	if snk.tuples != int64(len(items)) || snk.eos != 1 {
		return 0, fmt.Errorf("hop drill: sink saw %d tuples and %d EOS, want %d and 1", snk.tuples, snk.eos, len(items))
	}
	return cpu, nil
}

// drillHop prices one extra operator hop (edge + driver + restamp + a
// pass-through operator) per item: (CPU with 3 pass-through operators -
// CPU with 1) / 2 / items, at batch 256 and on per-item edges. CPU time,
// not wall: five goroutines on two cores overlap, and it is CPU that adds
// up to cpu_us_per_tuple.
func (dr drills) hop(out map[string]float64) error {
	for _, c := range []struct {
		name         string
		batch, items int
	}{{"exec.hop_ns_per_item_b256", 256, 400_000}, {"exec.hop_ns_per_item_b1", 0, 60_000}} {
		items := make([]stream.Item, dr.n(c.items))
		for i := range items {
			items[i] = stream.TupleItem(stream.MustTuple(gen.SchemaA, stream.Time(i+1), value.Int(int64(i&15)), value.Str("A")))
		}
		var w [2]time.Duration
		for i, k := range []int{1, 3} {
			var err error
			if w[i], err = medianOf(func() (time.Duration, error) { return hopCPU(items, k, c.batch) }); err != nil {
				return err
			}
		}
		out[c.name] = nsPer(w[1]-w[0], 2*len(items))
	}
	return nil
}

// run fills out with every drill metric.
func (dr drills) run(in *input, d *direct, out map[string]float64) error {
	sh := shapeOf(in, d)
	if err := dr.store(sh, out); err != nil {
		return err
	}
	if err := dr.joinbase(out); err != nil {
		return err
	}
	dr.punct(sh, out)
	dr.streamValue(out)
	return dr.hop(out)
}
