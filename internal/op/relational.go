package op

import (
	"fmt"

	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// Select filters tuples by a predicate. Punctuations pass through
// unchanged (the pass rule for selection: dropping tuples can only make
// a punctuation's promise easier to keep).
type Select struct {
	name     string
	in       *stream.Schema
	pred     func(*stream.Tuple) bool
	emit     Emitter
	eos      bool
	finished bool
	now      stream.Time
}

var _ Operator = (*Select)(nil)

// NewSelect builds a selection with the given predicate.
func NewSelect(in *stream.Schema, pred func(*stream.Tuple) bool, emit Emitter) (*Select, error) {
	if in == nil || pred == nil || emit == nil {
		return nil, fmt.Errorf("op: select: schema, predicate and emitter are all required")
	}
	return &Select{name: "select", in: in, pred: pred, emit: emit}, nil
}

// Name implements Operator.
func (s *Select) Name() string { return s.name }

// NumPorts implements Operator.
func (s *Select) NumPorts() int { return 1 }

// OutSchema implements Operator.
func (s *Select) OutSchema() *stream.Schema { return s.in }

// Process implements Operator.
func (s *Select) Process(port int, it stream.Item, now stream.Time) error {
	if err := ValidatePort(s.name, port, 1); err != nil {
		return err
	}
	if s.finished {
		return fmt.Errorf("op: select: Process after Finish")
	}
	if now > s.now {
		s.now = now
	}
	switch it.Kind {
	case stream.KindTuple:
		if s.pred(it.Tuple) {
			return s.emit.Emit(it)
		}
		return nil
	case stream.KindPunct:
		return s.emit.Emit(it)
	case stream.KindEOS:
		if s.eos {
			return fmt.Errorf("op: select: duplicate EOS")
		}
		s.eos = true
		return nil
	default:
		return fmt.Errorf("op: select: unknown item kind %v", it.Kind)
	}
}

// OnIdle implements Operator.
func (s *Select) OnIdle(stream.Time) (bool, error) { return false, nil }

// Finish implements Operator.
func (s *Select) Finish(now stream.Time) error {
	if s.finished {
		return fmt.Errorf("op: select: double Finish")
	}
	if !s.eos {
		return fmt.Errorf("op: select: Finish before EOS")
	}
	if now > s.now {
		s.now = now
	}
	s.finished = true
	return s.emit.Emit(stream.EOSItem(s.now))
}

// Project keeps a subset of attributes. A punctuation is propagated
// (projected onto the kept attributes) only when every dropped
// attribute's pattern is wildcard — otherwise the projected punctuation
// would over-promise and is dropped instead (the projection rule of
// Tucker et al.).
type Project struct {
	name     string
	in, out  *stream.Schema
	keep     []int
	emit     Emitter
	eos      bool
	finished bool
	now      stream.Time
}

var _ Operator = (*Project)(nil)

// NewProject builds a projection keeping the attributes at the given
// positions, in the given order.
func NewProject(in *stream.Schema, keep []int, emit Emitter) (*Project, error) {
	if in == nil || emit == nil {
		return nil, fmt.Errorf("op: project: schema and emitter required")
	}
	if len(keep) == 0 {
		return nil, fmt.Errorf("op: project: must keep at least one attribute")
	}
	fields := make([]stream.Field, len(keep))
	seen := map[int]bool{}
	for i, k := range keep {
		if k < 0 || k >= in.Width() {
			return nil, fmt.Errorf("op: project: attribute %d out of range", k)
		}
		if seen[k] {
			return nil, fmt.Errorf("op: project: attribute %d kept twice", k)
		}
		seen[k] = true
		fields[i] = in.FieldAt(k)
	}
	out, err := stream.NewSchema("project", fields...)
	if err != nil {
		return nil, err
	}
	ks := make([]int, len(keep))
	copy(ks, keep)
	return &Project{name: "project", in: in, out: out, keep: ks, emit: emit}, nil
}

// Name implements Operator.
func (p *Project) Name() string { return p.name }

// NumPorts implements Operator.
func (p *Project) NumPorts() int { return 1 }

// OutSchema implements Operator.
func (p *Project) OutSchema() *stream.Schema { return p.out }

// Process implements Operator.
func (p *Project) Process(port int, it stream.Item, now stream.Time) error {
	if err := ValidatePort(p.name, port, 1); err != nil {
		return err
	}
	if p.finished {
		return fmt.Errorf("op: project: Process after Finish")
	}
	if now > p.now {
		p.now = now
	}
	switch it.Kind {
	case stream.KindTuple:
		t := it.Tuple
		if len(t.Values) != p.in.Width() {
			return fmt.Errorf("op: project: tuple width %d", len(t.Values))
		}
		vs := make([]value.Value, 0, len(p.keep))
		for _, k := range p.keep {
			vs = append(vs, t.Values[k])
		}
		nt := &stream.Tuple{Values: vs, Ts: it.Ts}
		return p.emit.Emit(stream.TupleItem(nt))
	case stream.KindPunct:
		pt := it.Punct
		if pt.Width() != p.in.Width() {
			return fmt.Errorf("op: project: punctuation width %d", pt.Width())
		}
		kept := map[int]bool{}
		for _, k := range p.keep {
			kept[k] = true
		}
		for i := 0; i < pt.Width(); i++ {
			if !kept[i] && pt.PatternAt(i).Kind() != punct.Wildcard {
				return nil
			}
		}
		pats := make([]punct.Pattern, len(p.keep))
		for i, k := range p.keep {
			pats[i] = pt.PatternAt(k)
		}
		np, err := punct.New(pats...)
		if err != nil {
			return err
		}
		return p.emit.Emit(stream.PunctItem(np, it.Ts))
	case stream.KindEOS:
		if p.eos {
			return fmt.Errorf("op: project: duplicate EOS")
		}
		p.eos = true
		return nil
	default:
		return fmt.Errorf("op: project: unknown item kind %v", it.Kind)
	}
}

// OnIdle implements Operator.
func (p *Project) OnIdle(stream.Time) (bool, error) { return false, nil }

// Finish implements Operator.
func (p *Project) Finish(now stream.Time) error {
	if p.finished {
		return fmt.Errorf("op: project: double Finish")
	}
	if !p.eos {
		return fmt.Errorf("op: project: Finish before EOS")
	}
	if now > p.now {
		p.now = now
	}
	p.finished = true
	return p.emit.Emit(stream.EOSItem(p.now))
}
