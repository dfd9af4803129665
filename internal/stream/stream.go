// Package stream defines the data model flowing through operators:
// schemas, tuples, punctuations-as-items, and end-of-stream markers.
// A punctuated stream is a sequence of Items, each either a data Tuple or
// a punctuation promising that no later tuple in the same stream matches
// it (Tucker et al.; PJoin paper §2.2).
package stream

import (
	"fmt"
	"strings"

	"pjoin/internal/punct"
	"pjoin/internal/value"
)

// Time is a stream timestamp in nanoseconds since the start of the run.
// Both the live executor (wall clock) and the simulator (virtual clock)
// produce it.
type Time int64

// Millis returns the timestamp in fractional milliseconds, the unit the
// paper's charts use.
func (t Time) Millis() float64 { return float64(t) / 1e6 }

// Millisecond is one millisecond of stream time.
const Millisecond Time = 1e6

// Field describes one attribute of a schema.
type Field struct {
	Name string
	Kind value.Kind
}

// Schema is an ordered list of named, typed attributes. Schemas are
// immutable after construction and shared by every tuple of a stream.
type Schema struct {
	name   string
	fields []Field
	index  map[string]int
}

// NewSchema builds a schema. Field names must be unique and non-empty.
func NewSchema(name string, fields ...Field) (*Schema, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("stream: schema %q needs at least one field", name)
	}
	idx := make(map[string]int, len(fields))
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("stream: schema %q field %d has empty name", name, i)
		}
		if f.Kind == value.KindInvalid {
			return nil, fmt.Errorf("stream: schema %q field %q has invalid kind", name, f.Name)
		}
		if _, dup := idx[f.Name]; dup {
			return nil, fmt.Errorf("stream: schema %q duplicates field %q", name, f.Name)
		}
		idx[f.Name] = i
	}
	fs := make([]Field, len(fields))
	copy(fs, fields)
	return &Schema{name: name, fields: fs, index: idx}, nil
}

// MustSchema is NewSchema that panics on error; for tests and examples.
func MustSchema(name string, fields ...Field) *Schema {
	s, err := NewSchema(name, fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the schema's stream name.
func (s *Schema) Name() string { return s.name }

// Width returns the number of attributes.
func (s *Schema) Width() int { return len(s.fields) }

// FieldAt returns the i-th field.
func (s *Schema) FieldAt(i int) Field { return s.fields[i] }

// IndexOf returns the position of the named field, or an error.
func (s *Schema) IndexOf(name string) (int, error) {
	if i, ok := s.index[name]; ok {
		return i, nil
	}
	return 0, fmt.Errorf("stream: schema %q has no field %q", s.name, name)
}

// MustIndexOf is IndexOf that panics on error.
func (s *Schema) MustIndexOf(name string) int {
	i, err := s.IndexOf(name)
	if err != nil {
		panic(err)
	}
	return i
}

// Concat returns the schema of a join result: the fields of s followed by
// the fields of t, with colliding names prefixed by their stream name.
func (s *Schema) Concat(name string, t *Schema) (*Schema, error) {
	fields := make([]Field, 0, len(s.fields)+len(t.fields))
	seen := make(map[string]bool, cap(fields))
	add := func(owner *Schema, f Field) {
		n := f.Name
		if seen[n] {
			n = owner.name + "." + f.Name
		}
		seen[n] = true
		fields = append(fields, Field{Name: n, Kind: f.Kind})
	}
	for _, f := range s.fields {
		add(s, f)
	}
	for _, f := range t.fields {
		add(t, f)
	}
	return NewSchema(name, fields...)
}

// String renders "name(field kind, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Name)
		b.WriteByte(' ')
		b.WriteString(f.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is one data element of a stream: the attribute values plus the
// timestamp its creator gave it. Tuples are immutable once emitted and
// shared: a source may replay the same tuple through several pipelines,
// and every operator on the way sees the same header. The time a tuple
// arrived AT AN OPERATOR is therefore not a tuple field but Item.Ts; an
// operator that retains a tuple and needs the arrival time keeps it
// beside the tuple (the joins: store.StoredTuple.ATS drives state
// residence and window expiry, and a result's Ts is passed to FillJoin).
// (One kind of tuple is not shared: a join result an exec edge built
// inside a batch, delivered by an item marked Borrowed — see Item.)
//
// Span, when non-zero, is a provenance trace ID (internal/obs/span)
// assigned by a source-side sampler; it rides the tuple through state
// residency and into join results, is never encoded by AppendBinary,
// and carries no data semantics — untraced runs leave it zero.
type Tuple struct {
	Values []value.Value
	Ts     Time
	Span   uint64
}

// NewTuple builds a tuple after validating the values against the schema.
func NewTuple(s *Schema, ts Time, vals ...value.Value) (*Tuple, error) {
	if err := validate(s, vals); err != nil {
		return nil, err
	}
	vs := make([]value.Value, len(vals))
	copy(vs, vals)
	return &Tuple{Values: vs, Ts: ts}, nil
}

// validate checks vals against the schema's width and field kinds.
func validate(s *Schema, vals []value.Value) error {
	if len(vals) != s.Width() {
		return fmt.Errorf("stream: tuple width %d does not fit schema %s", len(vals), s)
	}
	for i, v := range vals {
		if v.Kind() != s.fields[i].Kind {
			return fmt.Errorf("stream: field %q wants %s, got %s",
				s.fields[i].Name, s.fields[i].Kind, v.Kind())
		}
	}
	return nil
}

// MustTuple is NewTuple that panics on error.
func MustTuple(s *Schema, ts Time, vals ...value.Value) *Tuple {
	t, err := NewTuple(s, ts, vals...)
	if err != nil {
		panic(err)
	}
	return t
}

// Width returns the number of attribute values.
func (t *Tuple) Width() int { return len(t.Values) }

// Join returns the concatenation of t and u as a fresh result tuple whose
// timestamp is the later of the two inputs' timestamps. It is the
// single-result form of FillJoin for tuples whose Ts is their arrival
// time (tests' references, the benchmark's drill); the joins, shj too,
// build their results through FillJoin into chunked storage (ResultSlab).
func (t *Tuple) Join(u *Tuple) *Tuple {
	res := new(Tuple)
	res.FillJoin(make([]value.Value, len(t.Values)+len(u.Values)), t, u, max(t.Ts, u.Ts))
	return res
}

// FillJoin makes res the join result of t and u at time ts — the one
// construction rule for results: vals receives t's values followed by
// u's and becomes res.Values (the caller provides it with length
// t.Width()+u.Width() and gives up ownership), Ts is ts, which a join
// passes as the later partner's arrival, and Span is JoinSpan(t, u).
func (res *Tuple) FillJoin(vals []value.Value, t, u *Tuple, ts Time) {
	n := copy(vals, t.Values)
	copy(vals[n:], u.Values)
	res.Values, res.Ts, res.Span = vals, ts, JoinSpan(t, u)
}

// JoinSpan returns the Span FillJoin gives the join result of t and u,
// for a join that accounts for a result it hands to its emitter as a
// pair (op.JoinEmitter) and never sees built.
func JoinSpan(t, u *Tuple) uint64 {
	// A result descends from both inputs; when both are traced the
	// earlier-assigned trace wins so attribution stays deterministic.
	if t.Span == 0 || (u.Span != 0 && u.Span < t.Span) {
		return u.Span
	}
	return t.Span
}

// String renders "(v1, v2, ...)@ts".
func (t *Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t.Values {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	fmt.Fprintf(&b, ")@%d", t.Ts)
	return b.String()
}

// ItemKind discriminates stream items.
type ItemKind uint8

// Stream item kinds: a data tuple, a punctuation, or the end-of-stream
// marker (no more items of any kind will follow).
const (
	KindTuple ItemKind = iota
	KindPunct
	KindEOS
)

// String returns the kind's name.
func (k ItemKind) String() string {
	switch k {
	case KindTuple:
		return "tuple"
	case KindPunct:
		return "punct"
	case KindEOS:
		return "eos"
	default:
		return fmt.Sprintf("ItemKind(%d)", uint8(k))
	}
}

// Item is one element of a punctuated stream.
//
// Ts is the item's arrival time at the operator it is being delivered
// to (equally, its emission time at the operator that produced it): the
// executor overwrites it at every hop and never touches the tuple, so
// for a tuple item Ts and Tuple.Ts agree only until the first restamp.
//
// Span, when non-zero on a KindPunct item, is the punctuation's
// provenance trace ID (internal/obs/span): the sharded router stamps
// it before broadcasting so every shard's lifecycle spans group under
// one trace. Tuple provenance rides Tuple.Span instead — an item
// rebuild (the sharded join's align forward) must preserve both.
//
// Borrowed marks a tuple that lives in the Batch that delivers the item
// (Batch.AppendJoin: an exec edge builds a join's results there) or in
// the slab of the shj that emits it: the tuple and its Values are valid
// until the Process / ProcessBatch call that delivered the item returns
// — the lifetime of the items slice itself — after which the batch is
// recycled (shj's slab rewound) and the header reads zero (Values ==
// nil). Reading it, or forwarding the item to an op.Emitter, inside that
// call needs no care; retaining the item, the tuple or its Values past
// it goes through ResultSlab.Keep. An item that is not borrowed —
// everything a source, a direct drive of PJoin or another plain emitter
// delivers — is shared and immutable as before.
type Item struct {
	Kind     ItemKind
	Borrowed bool              // the tuple is valid only until the delivering call returns
	Tuple    *Tuple            // set when Kind == KindTuple
	Punct    punct.Punctuation // set when Kind == KindPunct
	Ts       Time              // arrival/emission timestamp of the item
	Span     uint64            // punctuation trace ID, 0 when untraced
}

// TupleItem wraps a tuple as a stream item.
func TupleItem(t *Tuple) Item { return Item{Kind: KindTuple, Tuple: t, Ts: t.Ts} }

// PunctItem wraps a punctuation as a stream item.
func PunctItem(p punct.Punctuation, ts Time) Item {
	return Item{Kind: KindPunct, Punct: p, Ts: ts}
}

// EOSItem returns the end-of-stream marker.
func EOSItem(ts Time) Item { return Item{Kind: KindEOS, Ts: ts} }

// String renders the item for logs.
func (it Item) String() string {
	switch it.Kind {
	case KindTuple:
		return it.Tuple.String()
	case KindPunct:
		return fmt.Sprintf("%s@%d", it.Punct, it.Ts)
	case KindEOS:
		return fmt.Sprintf("EOS@%d", it.Ts)
	default:
		return "<bad item>"
	}
}
