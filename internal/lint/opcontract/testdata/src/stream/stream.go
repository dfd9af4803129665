// Package stream stubs the item/time contract types for the
// opcontract fixtures; only the names the analyzer keys on matter.
package stream

// Kind tags an item.
type Kind uint8

// The item kinds the contract cares about.
const (
	KindTuple Kind = iota
	KindPunct
	KindEOS
)

// Time is virtual stream time.
type Time int64

// Tuple is a data element; Ts is its creator's stamp. It is shared and
// immutable unless the item that delivers it is borrowed.
type Tuple struct {
	Ts     Time
	Values []int
}

// Item is one stream element; Ts is its arrival stamp at the operator
// it is delivered to. Borrowed marks a tuple that is recycled when the
// delivering call returns.
type Item struct {
	Kind     Kind
	Borrowed bool
	At       Time
	Tuple    *Tuple
	Ts       Time
}

// ResultSlab stubs the keeper's storage.
type ResultSlab struct{}

// Keep returns an item that outlives the call that delivered it.
func (r *ResultSlab) Keep(it Item) Item { return it }

// EOSItem builds the end-of-stream item.
func EOSItem(at Time) Item { return Item{Kind: KindEOS, At: at} }
