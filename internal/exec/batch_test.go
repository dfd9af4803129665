package exec

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"pjoin/internal/gen"
	"pjoin/internal/op"
	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// wallLog records the wall-clock instant it first processes an item of
// each kind, so batching tests can assert when the executor actually
// delivered something — independent of restamped item timestamps, which
// deliberately hide edge queueing.
type wallLog struct {
	mu    sync.Mutex
	first map[stream.ItemKind]time.Time
	out   op.Emitter
}

func newWallLog(out op.Emitter) *wallLog {
	return &wallLog{first: map[stream.ItemKind]time.Time{}, out: out}
}

func (w *wallLog) Name() string              { return "wall-log" }
func (w *wallLog) NumPorts() int             { return 1 }
func (w *wallLog) OutSchema() *stream.Schema { return gen.SchemaA }

func (w *wallLog) Process(port int, it stream.Item, now stream.Time) error {
	w.mu.Lock()
	if _, ok := w.first[it.Kind]; !ok {
		w.first[it.Kind] = time.Now()
	}
	w.mu.Unlock()
	return nil
}

func (w *wallLog) OnIdle(stream.Time) (bool, error) { return false, nil }

func (w *wallLog) Finish(now stream.Time) error {
	return w.out.Emit(stream.EOSItem(now))
}

func (w *wallLog) firstAt(k stream.ItemKind) time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.first[k]
}

// TestPunctuationCutsBatch pins the propagation-latency rule:
// punctuations never wait in an edge buffer. With a huge batch size and
// a linger far beyond the test's lifetime, a buffered tuple run would
// sit until EOS — but the punctuation must flush the batch the moment
// it is emitted, so the operator sees it a source-stall earlier than
// the EOS.
func TestPunctuationCutsBatch(t *testing.T) {
	const stall = 300 * time.Millisecond
	p := NewPipeline()
	p.BatchSize = 1 << 20
	p.BatchLinger = time.Hour
	src, out := p.Edge(), p.Edge()
	w := newWallLog(out)
	p.launched = append(p.launched, func() {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer src.close()
			for _, it := range items(t, 5) {
				if src.Emit(it) != nil {
					return
				}
			}
			pi := stream.PunctItem(punct.MustKeyOnly(2, 0, punct.Const(value.Int(1))), 0)
			if src.Emit(pi) != nil {
				return
			}
			time.Sleep(stall)
			src.Emit(stream.EOSItem(0))
		}()
	})
	if err := p.Spawn(w, src); err != nil {
		t.Fatal(err)
	}
	p.Sink(out)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	punctAt, eosAt := w.firstAt(stream.KindPunct), w.firstAt(stream.KindEOS)
	if punctAt.IsZero() || eosAt.IsZero() {
		t.Fatalf("operator missed items: punct %v, eos %v", punctAt, eosAt)
	}
	if gap := eosAt.Sub(punctAt); gap < stall/2 {
		t.Errorf("punctuation was processed only %v before EOS; it waited in the "+
			"batch buffer through the %v source stall instead of cutting the batch", gap, stall)
	}
	// The tuples ahead of the punctuation ride the same cut.
	if tupAt := w.firstAt(stream.KindTuple); eosAt.Sub(tupAt) < stall/2 {
		t.Error("tuples before the punctuation were not flushed with it")
	}
}

// TestLingerBoundsTupleDelay pins the other half of the latency bound:
// with no punctuation to cut the batch and a batch size never reached,
// the linger timer alone must flush a waiting tuple within ~linger —
// not hold it until EOS.
func TestLingerBoundsTupleDelay(t *testing.T) {
	const (
		linger = 20 * time.Millisecond
		stall  = 400 * time.Millisecond
	)
	p := NewPipeline()
	p.BatchSize = 1 << 20
	p.BatchLinger = linger
	src, out := p.Edge(), p.Edge()
	w := newWallLog(out)
	p.launched = append(p.launched, func() {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			defer src.close()
			for _, it := range items(t, 3) {
				if src.Emit(it) != nil {
					return
				}
			}
			time.Sleep(stall)
			src.Emit(stream.EOSItem(0))
		}()
	})
	if err := p.Spawn(w, src); err != nil {
		t.Fatal(err)
	}
	p.Sink(out)
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	tupAt, eosAt := w.firstAt(stream.KindTuple), w.firstAt(stream.KindEOS)
	if tupAt.IsZero() || eosAt.IsZero() {
		t.Fatal("operator missed items")
	}
	if gap := eosAt.Sub(tupAt); gap < stall/2 {
		t.Errorf("first tuple was processed only %v before EOS; the %v linger "+
			"timer did not flush it during the %v source stall", gap, linger, stall)
	}
}

// roomLog records, for each batch it is handed, the batch's room
// (cap(items)) and the identity of its array, and the kind and own Ts of
// every item, in delivery order.
type roomLog struct {
	rooms  []int
	arrays []uintptr
	seq    []stream.Time // a tuple's own Ts, -1 for a punctuation, -2 for EOS
}

func (r *roomLog) Name() string              { return "room-log" }
func (r *roomLog) NumPorts() int             { return 1 }
func (r *roomLog) OutSchema() *stream.Schema { return gen.SchemaA }

func (r *roomLog) ProcessBatch(port int, items []stream.Item, now stream.Time) error {
	r.rooms = append(r.rooms, cap(items))
	r.arrays = append(r.arrays, uintptr(unsafe.Pointer(unsafe.SliceData(items))))
	for _, it := range items {
		switch it.Kind {
		case stream.KindTuple:
			r.seq = append(r.seq, it.Tuple.Ts)
		case stream.KindPunct:
			r.seq = append(r.seq, -1)
		default:
			r.seq = append(r.seq, -2)
		}
	}
	return nil
}

// logRooms prints how many batches had each room: the line make
// bench-alloc shows.
func (r *roomLog) logRooms(t *testing.T, input string) {
	t.Helper()
	counts := map[int]int{}
	for _, room := range r.rooms {
		counts[room]++
	}
	t.Logf("%s input: %d items in %d batches, by room: %v", input, len(r.seq), len(r.rooms), counts)
}

func (r *roomLog) Process(port int, it stream.Item, now stream.Time) error {
	return r.ProcessBatch(port, []stream.Item{it}, now)
}

func (r *roomLog) OnIdle(stream.Time) (bool, error) { return false, nil }
func (r *roomLog) Finish(stream.Time) error         { return nil }

// runRoomLog runs an unpaced source of in through a pass-through select
// into a roomLog at the given batch size, with a linger no run outlives:
// only a full batch, a punctuation or the EOS cuts. The roomLog reads the
// select's output edge: a source's edge lends views of its input and has
// no batches of its own to size.
func runRoomLog(t *testing.T, in []stream.Item, batch int) *roomLog {
	t.Helper()
	p := NewPipeline()
	p.BatchSize = batch
	p.BatchLinger = time.Hour
	src, fed := p.Edge(), p.Edge()
	sel, err := op.NewSelect(gen.SchemaA, func(*stream.Tuple) bool { return true }, fed)
	if err != nil {
		t.Fatal(err)
	}
	r := &roomLog{}
	p.SourceItems(src, in, false)
	if err := p.Spawn(sel, src); err != nil {
		t.Fatal(err)
	}
	if err := p.Spawn(r, fed); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestEdgeBatchesFollowWhatTheyCarry pins how an operator-fed edge sizes
// its batches at BatchSize 256: born with room for birthRoom items while
// none has filled, so a punctuation-cut input never pays for 256-item
// arrays, and born full size once one fills, so a dense input is not cut
// at 64. The items, their order and their kinds are those of per-item
// delivery.
func TestEdgeBatchesFollowWhatTheyCarry(t *testing.T) {
	tuples := items(t, 4000)
	closed := stream.PunctItem(punct.MustKeyOnly(2, 0, punct.Const(value.Int(1))), 0)
	// sparse cuts a punctuation after every run of 1, 2, …, 35 tuples.
	var sparse []stream.Item
	for i, run := 0, 1; i < len(tuples); run = run%35 + 1 {
		end := min(i+run, len(tuples))
		sparse = append(append(sparse, tuples[i:end]...), closed)
		i = end
	}
	// dense has a punctuation after every 1,000 tuples.
	var dense []stream.Item
	for i := 0; i < len(tuples); i += 1000 {
		dense = append(append(dense, tuples[i:i+1000]...), closed)
	}
	t.Run("sparse", func(t *testing.T) {
		r := runRoomLog(t, sparse, 256)
		r.logRooms(t, "punctuation-cut")
		for i, room := range r.rooms {
			if room > birthRoom {
				t.Fatalf("batch %d of a punctuation-cut input has room for %d items, want at most %d", i, room, birthRoom)
			}
		}
		if want := runRoomLog(t, sparse, 1).seq; !slices.Equal(r.seq, want) {
			t.Errorf("batch 256 delivered %d items, batch 1 %d, or another order", len(r.seq), len(want))
		}
	})
	t.Run("dense", func(t *testing.T) {
		r := runRoomLog(t, dense, 256)
		r.logRooms(t, "dense")
		if r.rooms[0] != birthRoom {
			t.Fatalf("the first batch has room for %d items, want %d", r.rooms[0], birthRoom)
		}
		// The first batch fills and is recycled with its room: it is the
		// one array of that size the edge ever has.
		full := 0
		for i, room := range r.rooms {
			switch {
			case room == 256:
				full++
			case room != birthRoom || r.arrays[i] != r.arrays[0]:
				t.Fatalf("batch %d has room for %d items in a new array; after the first batch filled, want 256", i, room)
			}
		}
		if full == 0 {
			t.Error("no batch has room for 256 items after the first one filled")
		}
		if want := runRoomLog(t, dense, 1).seq; !slices.Equal(r.seq, want) {
			t.Errorf("batch 256 delivered %d items, batch 1 %d, or another order", len(r.seq), len(want))
		}
	})
}
