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

// Tuple is a shared, immutable data element; Ts is its creator's stamp.
type Tuple struct {
	Ts Time
}

// Item is one stream element; Ts is its arrival stamp at the operator
// it is delivered to.
type Item struct {
	Kind  Kind
	At    Time
	Tuple *Tuple
	Ts    Time
}

// EOSItem builds the end-of-stream item.
func EOSItem(at Time) Item { return Item{Kind: KindEOS, At: at} }
