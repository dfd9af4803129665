package op

import (
	"fmt"

	"pjoin/internal/punct"
	"pjoin/internal/stream"
	"pjoin/internal/value"
)

// KeyPunctuator derives punctuations from a declared key constraint
// (paper §1.1: "since each tuple in the Open stream has a unique item_id
// value, the query system can then insert a punctuation after each tuple
// in this stream signaling no more tuple containing this specific
// item_id value will occur in the future"). It forwards every input item
// unchanged and inserts, after each tuple, a constant punctuation on the
// key attribute.
//
// The operator also enforces the constraint it exploits: a duplicate key
// value is an error (the derived punctuation would otherwise have been a
// lie).
type KeyPunctuator struct {
	in       *stream.Schema
	keyAttr  int
	emit     Emitter
	seen     map[value.Key]bool
	eos      bool
	finished bool
	now      stream.Time
	derived  int64
}

var _ Operator = (*KeyPunctuator)(nil)

// NewKeyPunctuator builds the operator for streams whose keyAttr
// attribute is a key (unique across the whole stream).
func NewKeyPunctuator(in *stream.Schema, keyAttr int, emit Emitter) (*KeyPunctuator, error) {
	if in == nil || emit == nil {
		return nil, fmt.Errorf("op: key-punctuator: schema and emitter required")
	}
	if keyAttr < 0 || keyAttr >= in.Width() {
		return nil, fmt.Errorf("op: key-punctuator: attribute %d out of range for %s", keyAttr, in)
	}
	return &KeyPunctuator{
		in: in, keyAttr: keyAttr, emit: emit,
		seen: make(map[value.Key]bool),
	}, nil
}

// Name implements Operator.
func (k *KeyPunctuator) Name() string { return "key-punctuator" }

// NumPorts implements Operator.
func (k *KeyPunctuator) NumPorts() int { return 1 }

// OutSchema implements Operator.
func (k *KeyPunctuator) OutSchema() *stream.Schema { return k.in }

// Derived returns the number of punctuations inserted so far.
func (k *KeyPunctuator) Derived() int64 { return k.derived }

// Process implements Operator.
func (k *KeyPunctuator) Process(port int, it stream.Item, now stream.Time) error {
	if err := ValidatePort(k.Name(), port, 1); err != nil {
		return err
	}
	if k.finished {
		return fmt.Errorf("op: key-punctuator: Process after Finish")
	}
	if now > k.now {
		k.now = now
	}
	switch it.Kind {
	case stream.KindTuple:
		t := it.Tuple
		if len(t.Values) != k.in.Width() {
			return fmt.Errorf("op: key-punctuator: tuple width %d", len(t.Values))
		}
		key := t.Values[k.keyAttr]
		id := key.Key()
		if k.seen[id] {
			return fmt.Errorf("op: key-punctuator: duplicate key %s violates the declared constraint", key)
		}
		k.seen[id] = true
		if err := k.emit.Emit(it); err != nil {
			return err
		}
		p, err := punct.KeyOnly(k.in.Width(), k.keyAttr, punct.Const(key))
		if err != nil {
			return err
		}
		k.derived++
		return k.emit.Emit(stream.PunctItem(p, it.Ts))
	case stream.KindPunct:
		// Foreign punctuations pass through untouched.
		return k.emit.Emit(it)
	case stream.KindEOS:
		if k.eos {
			return fmt.Errorf("op: key-punctuator: duplicate EOS")
		}
		k.eos = true
		return nil
	default:
		return fmt.Errorf("op: key-punctuator: unknown item kind %v", it.Kind)
	}
}

// OnIdle implements Operator.
func (k *KeyPunctuator) OnIdle(stream.Time) (bool, error) { return false, nil }

// Finish implements Operator.
func (k *KeyPunctuator) Finish(now stream.Time) error {
	if k.finished {
		return fmt.Errorf("op: key-punctuator: double Finish")
	}
	if !k.eos {
		return fmt.Errorf("op: key-punctuator: Finish before EOS")
	}
	if now > k.now {
		k.now = now
	}
	k.finished = true
	return k.emit.Emit(stream.EOSItem(k.now))
}
