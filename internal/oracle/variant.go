package oracle

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"pjoin/internal/core"
	"pjoin/internal/gen"
	"pjoin/internal/obs"
	"pjoin/internal/op"
	"pjoin/internal/shj"
	"pjoin/internal/store"
	"pjoin/internal/stream"
)

// ErrInjectedFault is the sentinel injected by faulted variants' spill
// stores. A faulted run must either never hit it (the scenario spilled
// too little) or surface exactly it — any other error, or silent
// swallowing, is a bug in the operator's spill error handling.
var ErrInjectedFault = errors.New("oracle: injected spill fault")

// Variant is one operator configuration in the differential matrix.
type Variant struct {
	Op     string      // "pjoin" or "xjoin"
	Chunk  int         // DiskChunkBytes: 0 runs each pass to completion, else the per-step budget
	Fault  bool        // wrap spills in store.NewFaultSpill(failAt = Scenario.FaultAt)
	Batch  int         // ≤1 = per-item delivery; >1 = drive via ProcessBatch, batches up to this size
	Linger stream.Time // virtual span a batch may cover (0 = unbounded); only meaningful with Batch > 1
	Window stream.Time // core.Config.Window (pjoin only; memory-only, so MemoryBytes is cleared); 0 = none

	// Scramble delivers every tuple as a copy whose own Ts is not its
	// arrival time (Scenario.scrambled) while Item.Ts keeps the schedule,
	// as the live executor does: it restamps items, never tuples.
	Scramble bool
}

// String renders the variant in the replay-spec grammar, e.g.
// "pjoin/chunk=512/fault/batch=256/linger=1000000/window=20000/scramble"
// (flags omitted when off).
func (v Variant) String() string {
	parts := []string{v.Op}
	if v.Chunk > 0 {
		parts = append(parts, "chunk="+strconv.Itoa(v.Chunk))
	}
	if v.Fault {
		parts = append(parts, "fault")
	}
	if v.Batch > 1 {
		parts = append(parts, "batch="+strconv.Itoa(v.Batch))
		if v.Linger > 0 {
			parts = append(parts, "linger="+strconv.FormatInt(int64(v.Linger), 10))
		}
	}
	if v.Window > 0 {
		parts = append(parts, "window="+strconv.FormatInt(int64(v.Window), 10))
	}
	if v.Scramble {
		parts = append(parts, "scramble")
	}
	return strings.Join(parts, "/")
}

// ParseVariant is the inverse of Variant.String.
func ParseVariant(s string) (Variant, error) {
	var v Variant
	parts := strings.Split(s, "/")
	if len(parts) == 0 || (parts[0] != "pjoin" && parts[0] != "xjoin") {
		return v, fmt.Errorf("oracle: bad variant %q (want pjoin/... or xjoin/...)", s)
	}
	v.Op = parts[0]
	for _, p := range parts[1:] {
		switch {
		case p == "fault":
			v.Fault = true
		case p == "scramble":
			v.Scramble = true
		case strings.HasPrefix(p, "chunk="):
			n, err := strconv.Atoi(p[len("chunk="):])
			if err != nil || n < 0 {
				return v, fmt.Errorf("oracle: bad variant part %q in %q", p, s)
			}
			v.Chunk = n
		case strings.HasPrefix(p, "batch="):
			n, err := strconv.Atoi(p[len("batch="):])
			if err != nil || n < 1 {
				return v, fmt.Errorf("oracle: bad variant part %q in %q", p, s)
			}
			v.Batch = n
		case strings.HasPrefix(p, "linger="):
			n, err := strconv.ParseInt(p[len("linger="):], 10, 64)
			if err != nil || n < 0 {
				return v, fmt.Errorf("oracle: bad variant part %q in %q", p, s)
			}
			v.Linger = stream.Time(n)
		case strings.HasPrefix(p, "window="):
			n, err := strconv.ParseInt(p[len("window="):], 10, 64)
			if err != nil || n < 0 {
				return v, fmt.Errorf("oracle: bad variant part %q in %q", p, s)
			}
			v.Window = stream.Time(n)
		default:
			return v, fmt.Errorf("oracle: bad variant part %q in %q", p, s)
		}
	}
	return v, nil
}

// Matrix returns the full configuration matrix: PJoin and XJoin ×
// {DiskChunkBytes ∈ {0, 512}} × {FaultSpill off/on}: 4 PJoin rows + 4
// XJoin rows, all driven per item. The chunk
// axis is two schedules of the one disk-pass implementation — every pass
// drained inside the call that starts it, and passes stepped in the
// background at a budget small enough to split every partition read; one
// pjoin and one xjoin row add the 64 KiB budget the spill benchmark runs.
// On top of those, batched delivery (ProcessBatch with batch ∈ {8, 256} ×
// linger ∈ {0, 1ms virtual}) over four representative configurations —
// including a chunked row and a fault row (the injected sentinel must
// surface identically through the batch path): 16 more rows. Last, four
// scrambled rows (Variant.Scramble) — a single PJoin, a chunked one, an
// XJoin and a windowed PJoin (Variant.Window) — deliver tuples whose own
// Ts is not their arrival time, as the live executor does; every other
// row's tuples carry it, so a join that reads Tuple.Ts where the arrival
// time belongs fails these rows alone: 30 rows in all.
func Matrix() []Variant {
	var vs []Variant
	for _, chunk := range []int{0, 512} {
		for _, fault := range []bool{false, true} {
			for _, o := range []string{"pjoin", "xjoin"} {
				vs = append(vs, Variant{Op: o, Chunk: chunk, Fault: fault})
			}
		}
	}
	vs = append(vs,
		Variant{Op: "pjoin", Chunk: 64 << 10},
		Variant{Op: "xjoin", Chunk: 64 << 10})
	reps := []Variant{
		{Op: "pjoin"},
		{Op: "pjoin", Chunk: 512},
		{Op: "pjoin", Fault: true},
		{Op: "xjoin"},
	}
	for _, batch := range []int{8, 256} {
		for _, linger := range []stream.Time{0, stream.Millisecond} {
			for _, r := range reps {
				r.Batch, r.Linger = batch, linger
				vs = append(vs, r)
			}
		}
	}
	return append(vs,
		Variant{Op: "pjoin", Scramble: true},
		Variant{Op: "pjoin", Chunk: 512, Scramble: true},
		Variant{Op: "xjoin", Chunk: 512, Scramble: true},
		Variant{Op: "pjoin", Window: 20000, Scramble: true})
}

// spillStack assembles one side's spill store for the variant: a
// MemSpill, wrapped in fault injection on a faulted row (faults surface
// from the "device").
func spillStack(sc *Scenario, v Variant) store.SpillStore {
	if v.Fault {
		return store.NewFaultSpill(store.NewMemSpill(), store.FaultAny, sc.FaultAt, ErrInjectedFault)
	}
	return store.NewMemSpill()
}

func (sc *Scenario) thresholds() core.Thresholds {
	return core.Thresholds{
		Purge:          sc.Purge,
		MemoryBytes:    sc.MemoryBytes,
		DiskJoinIdle:   sc.DiskJoinIdle,
		PropagateCount: sc.PropagateCount,
	}
}

// build constructs the variant's join over the scenario's shared
// thresholds, emitting into out. disableFault builds the fault-recovery
// rerun: same variant, fault injection off. instr (nil for plain runs)
// threads an observability handle through — the traced oracle attaches
// a span recorder this way.
func build(sc *Scenario, v Variant, out op.Emitter, disableFault bool, instr *obs.Instr) (*core.PJoin, error) {
	fv := v
	if disableFault {
		fv.Fault = false
	}
	cfg := core.Config{
		SchemaA:        gen.SchemaA,
		SchemaB:        gen.SchemaB,
		AttrA:          gen.KeyAttr,
		AttrB:          gen.KeyAttr,
		NumBuckets:     sc.NumBuckets,
		Thresholds:     sc.thresholds(),
		DiskChunkBytes: fv.Chunk,
		Window:         fv.Window,
		Instr:          instr,
		SpillA:         spillStack(sc, fv),
		SpillB:         spillStack(sc, fv),
	}
	if fv.Window > 0 {
		cfg.Thresholds.MemoryBytes = 0 // window mode is memory-only
	}
	switch v.Op {
	case "pjoin":
		cfg.EagerIndex = sc.EagerIndex
		// The cross-variant punctuation comparison relies on the
		// propagated multiset being schedule-independent, which holds
		// because a released punctuation stays in force until it owes
		// nothing (punct.Set.Applied): the release schedule does not
		// feed back into pid assignment or purge power.
		cfg.VerifyPunctuations = true
		return core.New(cfg, out)
	case "xjoin":
		return core.NewXJoin(cfg, out)
	default:
		return nil, fmt.Errorf("oracle: unknown variant op %q", v.Op)
	}
}

// buildOracle constructs the brute-force shj result oracle. With a
// positive window it passes on only the results whose partners arrived
// within window of each other — the pairs core.Config.Window joins —
// telling the partners by their payloads, which the generator makes unique
// ("A17", "B4").
func buildOracle(sc *Scenario, window stream.Time, out op.Emitter) (op.Operator, error) {
	if window > 0 {
		arrived := map[string]stream.Time{}
		for _, a := range sc.Arrivals {
			if a.Item.Kind == stream.KindTuple {
				arrived[a.Item.Tuple.Values[1].StrVal()] = a.Item.Ts
			}
		}
		all := out
		out = op.EmitterFunc(func(it stream.Item) error {
			if it.Kind == stream.KindTuple {
				d := arrived[it.Tuple.Values[1].StrVal()] - arrived[it.Tuple.Values[3].StrVal()]
				if d > window || -d > window {
					return nil
				}
			}
			return all.Emit(it)
		})
	}
	return shj.New(gen.SchemaA, gen.SchemaB, gen.KeyAttr, gen.KeyAttr, out)
}
