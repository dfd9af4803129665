// Package shj implements the plain symmetric hash join (Wilschut & Apers)
// over unbounded streams: every arrival probes the opposite hash table
// and is then inserted into its own. There is no overflow handling and
// no constraint exploitation, so the state grows without bound — it is
// the paper's motivating "basic stream join solution" (§1.1) and this
// repository's correctness oracle: on any finite input its result set is
// the exact equi-join.
//
// Its results are borrowed (op.Operator rule 7): built in a slab the join
// rewinds when the Process call returns, so an emitter that only reads
// them costs no heap, and one that keeps them calls ResultSlab.Keep.
package shj

import (
	"fmt"

	"pjoin/internal/op"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// SHJ is the naive symmetric hash join. It implements op.Operator with
// two input ports.
type SHJ struct {
	out      op.Emitter
	attrs    [2]int
	outSc    *stream.Schema
	tables   [2]map[value.Key][]*stream.Tuple
	kept     stream.ResultSlab // copies of the borrowed tuples the tables hold
	res      stream.ResultSlab // the results of one Process call, rewound when it returns
	sizes    [2]int
	eos      [2]bool
	finished bool
	now      stream.Time
}

var _ op.Operator = (*SHJ)(nil)

// New builds a symmetric hash join of a.attrA = b.attrB.
func New(a, b *stream.Schema, attrA, attrB int, out op.Emitter) (*SHJ, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("shj: both schemas required")
	}
	if out == nil {
		return nil, fmt.Errorf("shj: output emitter required")
	}
	if attrA < 0 || attrA >= a.Width() || attrB < 0 || attrB >= b.Width() {
		return nil, fmt.Errorf("shj: join attributes (%d, %d) out of range", attrA, attrB)
	}
	if a.FieldAt(attrA).Kind != b.FieldAt(attrB).Kind {
		return nil, fmt.Errorf("shj: join attribute kinds differ")
	}
	outSc, err := a.Concat("join", b)
	if err != nil {
		return nil, err
	}
	j := &SHJ{
		out:   out,
		attrs: [2]int{attrA, attrB},
		outSc: outSc,
		tables: [2]map[value.Key][]*stream.Tuple{
			make(map[value.Key][]*stream.Tuple),
			make(map[value.Key][]*stream.Tuple),
		},
	}
	j.res.Rewind()
	return j, nil
}

// Name implements op.Operator.
func (j *SHJ) Name() string { return "shj" }

// NumPorts implements op.Operator.
func (j *SHJ) NumPorts() int { return 2 }

// OutSchema implements op.Operator.
func (j *SHJ) OutSchema() *stream.Schema { return j.outSc }

// StateTuples returns the total number of stored tuples (both tables).
func (j *SHJ) StateTuples() int { return j.sizes[0] + j.sizes[1] }

// Process implements op.Operator. Punctuations are ignored.
func (j *SHJ) Process(port int, it stream.Item, now stream.Time) error {
	if err := op.ValidatePort(j.Name(), port, 2); err != nil {
		return err
	}
	if j.finished {
		return fmt.Errorf("shj: Process after Finish")
	}
	if now > j.now {
		j.now = now
	}
	switch it.Kind {
	case stream.KindTuple:
		defer j.res.Rewind() // the results are borrowed: they die with the call
		t := j.kept.Keep(it).Tuple
		key := t.Values[j.attrs[port]].Key()
		for _, m := range j.tables[1-port][key] {
			a, c := t, m
			if port == 1 {
				a, c = m, t
			}
			res := j.res.Join(a, c, max(t.Ts, m.Ts))
			if err := j.out.Emit(stream.Item{Kind: stream.KindTuple, Borrowed: true, Tuple: res, Ts: res.Ts}); err != nil {
				return err
			}
		}
		j.tables[port][key] = append(j.tables[port][key], t)
		j.sizes[port]++
		return nil
	case stream.KindPunct:
		return nil
	case stream.KindEOS:
		if j.eos[port] {
			return fmt.Errorf("shj: duplicate EOS on port %d", port)
		}
		j.eos[port] = true
		return nil
	default:
		return fmt.Errorf("shj: unknown item kind %v", it.Kind)
	}
}

// OnIdle implements op.Operator; SHJ has no background work.
func (j *SHJ) OnIdle(stream.Time) (bool, error) { return false, nil }

// Finish implements op.Operator.
func (j *SHJ) Finish(now stream.Time) error {
	if j.finished {
		return fmt.Errorf("shj: double Finish")
	}
	if !j.eos[0] || !j.eos[1] {
		return fmt.Errorf("shj: Finish before EOS on both ports")
	}
	if now > j.now {
		j.now = now
	}
	j.finished = true
	return j.out.Emit(stream.EOSItem(j.now))
}
