package exec

import (
	"context"
	"testing"
	"time"

	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// The tests in this file pin the tuple-lifetime contract across an edge
// (DESIGN.md §12): an edge fed by a join builds the results in the batch
// it is filling and delivers them borrowed; they are valid until the
// Process / ProcessBatch call returns; whoever keeps one goes through
// Keep, whoever forwards one to an edge needs nothing.

// pairer emits, for every tuple it is handed, the join of the tuple with
// itself, at the tuple's own Ts, through its output's EmitJoin: the
// smallest producer of borrowed items.
type pairer struct {
	out op.Emitter
	eos bool
}

func (p *pairer) Name() string              { return "pairer" }
func (p *pairer) NumPorts() int             { return 1 }
func (p *pairer) OutSchema() *stream.Schema { return nil }
func (p *pairer) Process(port int, it stream.Item, now stream.Time) error {
	switch it.Kind {
	case stream.KindTuple:
		return p.out.(op.JoinEmitter).EmitJoin(it.Tuple, it.Tuple, it.Tuple.Ts)
	case stream.KindEOS:
		p.eos = true
	}
	return nil
}
func (p *pairer) OnIdle(stream.Time) (bool, error) { return false, nil }
func (p *pairer) Finish(now stream.Time) error     { return p.out.Emit(stream.EOSItem(now)) }

// hoarder breaks the contract on purpose: it keeps every tuple pointer it
// is handed as it is (raw), next to a proper Keep copy and a rendering of
// the values taken while the call was still running.
type hoarder struct {
	raw      []*stream.Tuple
	borrowed []bool
	kept     []stream.Item
	seen     []string
	keeper   stream.ResultSlab
	eos      bool
}

func (h *hoarder) Name() string              { return "hoarder" }
func (h *hoarder) NumPorts() int             { return 1 }
func (h *hoarder) OutSchema() *stream.Schema { return nil }
func (h *hoarder) Process(port int, it stream.Item, now stream.Time) error {
	switch it.Kind {
	case stream.KindTuple:
		h.raw = append(h.raw, it.Tuple)
		h.borrowed = append(h.borrowed, it.Borrowed)
		h.kept = append(h.kept, h.keeper.Keep(it))
		h.seen = append(h.seen, valuesKey(it.Tuple))
	case stream.KindEOS:
		h.eos = true
	}
	return nil
}
func (h *hoarder) OnIdle(stream.Time) (bool, error) { return false, nil }
func (h *hoarder) Finish(stream.Time) error         { return nil }

// TestBorrowedTupleDiesWithItsCall is the lifetime half of the contract.
// Eight tuples flow source → pairer → hoarder at batch 256 under a linger
// nothing reaches, so each edge cuts exactly one batch, at EOS: the
// hoarder sees eight borrowed results in one delivery. After the run a
// tuple it kept without Keep reads as the zero header (Values == nil) —
// the driver recycled the batch when the call returned — while the Keep
// copies still read what was delivered. The same plan with the hoarder
// fed straight by the source shows the other side: source items are not
// borrowed, Keep returns them as they are and the raw pointers stay good.
func TestBorrowedTupleDiesWithItsCall(t *testing.T) {
	src := items(t, 8)
	run := func(viaPairer bool) *hoarder {
		p := NewPipeline()
		p.BatchSize = 256
		p.BatchLinger = time.Hour
		in := p.Edge()
		p.SourceItems(in, src, false)
		if viaPairer {
			paired := p.Edge()
			if err := p.Spawn(&pairer{out: paired}, in); err != nil {
				t.Fatal(err)
			}
			in = paired
		}
		h := &hoarder{}
		if err := p.Spawn(h, in); err != nil {
			t.Fatal(err)
		}
		if err := p.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(h.raw) != len(src) || !h.eos {
			t.Fatalf("hoarder saw %d tuples, EOS %v", len(h.raw), h.eos)
		}
		return h
	}

	h := run(true)
	for i, raw := range h.raw {
		if !h.borrowed[i] {
			t.Fatalf("result %d was not delivered borrowed", i)
		}
		if raw.Values != nil || raw.Ts != 0 {
			t.Errorf("result %d kept without Keep still reads %v after its call returned, want the zero header", i, raw)
		}
		k := h.kept[i]
		if k.Borrowed || k.Tuple == raw {
			t.Fatalf("result %d: Keep returned %+v", i, k)
		}
		if got := valuesKey(k.Tuple); got != h.seen[i] {
			t.Errorf("result %d: the Keep copy reads %q, was delivered as %q", i, got, h.seen[i])
		}
		want := src[i].Tuple.Join(src[i].Tuple)
		if got := valuesKey(k.Tuple); got != valuesKey(want) || k.Tuple.Ts != want.Ts {
			t.Errorf("result %d: the Keep copy is %v, want %v", i, k.Tuple, want)
		}
	}

	h = run(false)
	for i, raw := range h.raw {
		if h.borrowed[i] || raw != src[i].Tuple || h.kept[i].Tuple != raw {
			t.Fatalf("source item %d: borrowed %v, delivered %p, kept %p, want the source tuple %p throughout",
				i, h.borrowed[i], raw, h.kept[i].Tuple, src[i].Tuple)
		}
		if got := valuesKey(raw); got != h.seen[i] {
			t.Errorf("source tuple %d changed: %q, was %q", i, got, h.seen[i])
		}
	}
}
