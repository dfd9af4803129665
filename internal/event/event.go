// Package event implements PJoin's event-driven component framework
// (paper §3.6): typed events modelling runtime-parameter status changes,
// an event-listener registry whose entries pair an event with guard
// conditions and an ordered list of listener components, and a monitor
// that tracks runtime parameters against thresholds and invokes events
// when thresholds are reached. The paper's "flexible configuration of
// different join solutions" is realised at construction: the join builds
// its registry rows and thresholds from its Config, and both are fixed
// for the run. The registry is the dispatch table, and its String is the
// Table 1 printout.
package event

import (
	"fmt"
	"strings"

	"pjoin/internal/stream"
)

// Kind enumerates the events of §3.6.
type Kind uint8

// The event kinds. These mirror the paper's list; DiskJoinActivate is the
// paper's item 4 (the disk-join activation threshold being reached while
// the inputs are stalled).
const (
	// StreamEmpty signals both input streams have run out of tuples.
	StreamEmpty Kind = iota
	// PurgeThresholdReach signals the purge threshold is reached.
	PurgeThresholdReach
	// StateFull signals the in-memory join state reached the memory
	// threshold.
	StateFull
	// DiskJoinActivate signals the disk-join activation threshold is
	// reached (inputs stalled long enough to schedule background work).
	DiskJoinActivate
	// PropagateRequest signals a propagation request from a downstream
	// operator (pull mode).
	PropagateRequest
	// PropagateTimeExpire signals the time propagation threshold elapsed.
	PropagateTimeExpire
	// PropagateCountReach signals the count propagation threshold is
	// reached.
	PropagateCountReach

	numKinds
)

// String returns the event kind's name as used in the paper.
func (k Kind) String() string {
	switch k {
	case StreamEmpty:
		return "StreamEmptyEvent"
	case PurgeThresholdReach:
		return "PurgeThresholdReachEvent"
	case StateFull:
		return "StateFullEvent"
	case DiskJoinActivate:
		return "DiskJoinActivateEvent"
	case PropagateRequest:
		return "PropagateRequestEvent"
	case PropagateTimeExpire:
		return "PropagateTimeExpireEvent"
	case PropagateCountReach:
		return "PropagateCountReachEvent"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one occurrence dispatched through the registry. The payload
// fields are typed, so dispatching boxes nothing; a kind that carries no
// payload leaves them zero.
type Event struct {
	Kind  Kind
	At    stream.Time
	Side  Side  // PurgeThresholdReach: the side whose punctuations accumulated
	Bytes int64 // StateFull: the in-memory state size that reached the threshold
}

// Listener is a component that can handle events: in PJoin, the state
// purge, state relocation, disk join, index build and punctuation
// propagation components.
type Listener interface {
	// Name identifies the component in the registry's Table-1-style
	// printout and in dispatch errors.
	Name() string
	// Handle processes the event. Errors abort the dispatch and surface
	// to the operator.
	Handle(Event) error
}

// ListenerFunc adapts a function to the Listener interface.
type ListenerFunc struct {
	ID string
	Fn func(Event) error
}

// Name implements Listener.
func (l ListenerFunc) Name() string { return l.ID }

// Handle implements Listener.
func (l ListenerFunc) Handle(e Event) error { return l.Fn(e) }

// Condition guards a registry entry: the listeners run only when it
// returns true. A nil Condition always passes.
type Condition func(Event) bool

// entry is one row of the event-listener registry (paper Table 1).
type entry struct {
	cond      Condition
	condDesc  string
	listeners []Listener
}

// Registry is the event-listener registry: for each event kind, the
// guard condition and the ordered listeners that handle it ("if an event
// has multiple listeners, these listeners will be executed in an order
// specified in the event-listener registry"). The join registers its
// rows while it is built; none is removed.
type Registry struct {
	entries [numKinds][]entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register appends a registry row: when an event of the given kind is
// dispatched and cond passes (nil = always), the listeners run in order.
// condDesc documents the condition for String; use "" for none.
func (r *Registry) Register(kind Kind, cond Condition, condDesc string, listeners ...Listener) error {
	if kind >= numKinds {
		return fmt.Errorf("event: register: unknown kind %d", kind)
	}
	if len(listeners) == 0 {
		return fmt.Errorf("event: register %s: no listeners", kind)
	}
	for _, l := range listeners {
		if l == nil {
			return fmt.Errorf("event: register %s: nil listener", kind)
		}
	}
	ls := make([]Listener, len(listeners))
	copy(ls, listeners)
	r.entries[kind] = append(r.entries[kind], entry{cond: cond, condDesc: condDesc, listeners: ls})
	return nil
}

// Dispatch delivers the event to every matching row's listeners in
// order. The first listener error aborts and is returned.
func (r *Registry) Dispatch(e Event) error {
	if e.Kind >= numKinds {
		return fmt.Errorf("event: dispatch: unknown kind %d", e.Kind)
	}
	for _, row := range r.entries[e.Kind] {
		if row.cond != nil && !row.cond(e) {
			continue
		}
		for _, l := range row.listeners {
			if err := l.Handle(e); err != nil {
				return fmt.Errorf("event: %s -> %s: %w", e.Kind, l.Name(), err)
			}
		}
	}
	return nil
}

// String renders the registry as a Table-1-style listing:
//
//	PurgeThresholdReachEvent [threshold reached] -> state-purge
func (r *Registry) String() string {
	var b strings.Builder
	for k := Kind(0); k < numKinds; k++ {
		for _, row := range r.entries[k] {
			b.WriteString(k.String())
			if row.condDesc != "" {
				b.WriteString(" [" + row.condDesc + "]")
			}
			b.WriteString(" -> ")
			for i, l := range row.listeners {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(l.Name())
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
