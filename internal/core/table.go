package core

import (
	"fmt"
	"strings"

	"pjoin/internal/stream"
)

// event is one of the runtime-parameter status changes of paper §3.6.
type event uint8

const (
	streamEmpty         event = iota // both inputs have run out of tuples
	purgeThresholdReach              // a side's punctuations reached the purge threshold
	stateFull                        // the in-memory state reached the memory threshold
	diskJoinActivate                 // the inputs stalled for the disk join's activation threshold (the paper's item 4)
	propagateRequest                 // a downstream operator asks for punctuations (pull mode)
	propagateTimeExpire              // the time propagation threshold elapsed
	propagateCountReach              // the count propagation threshold is reached
	numEvents
)

// eventNames are the events' names in the paper, and conditions the
// condition text Table 1 prints beside each.
var (
	eventNames = [numEvents]string{
		"StreamEmptyEvent", "PurgeThresholdReachEvent", "StateFullEvent", "DiskJoinActivateEvent",
		"PropagateRequestEvent", "PropagateTimeExpireEvent", "PropagateCountReachEvent",
	}
	conditions = [numEvents]string{
		streamEmpty:         "both inputs ended",
		purgeThresholdReach: "purge threshold reached",
		stateFull:           "memory threshold reached",
		diskJoinActivate:    "inputs stalled",
	}
)

func (e event) String() string { return eventNames[e] }

// component is one of the join's components an event runs (§3.6); the
// memory join is the processing path and runs on no event.
type component uint8

const (
	statePurge component = iota
	stateRelocation
	diskJoin
	indexBuilding
	propagation
)

var componentNames = [...]string{
	"state-purge", "state-relocation", "disk-join", "index-build", "punctuation-propagation",
}

func (c component) String() string { return componentNames[c] }

// table is the event-listener registry of paper Table 1: for each event,
// its rows, each an ordered list of the components it runs ("if an event
// has multiple listeners, these listeners will be executed in an order
// specified in the event-listener registry"). The join builds it once
// from its Config and dispatches through it (PJoin.fire).
type table [numEvents][][]component

func newTable(cfg *Config, xjoin bool) table {
	var t table
	if !xjoin {
		t[purgeThresholdReach] = [][]component{{statePurge}}
	}
	t[stateFull] = [][]component{{stateRelocation}}
	t[diskJoinActivate] = [][]component{{diskJoin}}
	t[streamEmpty] = [][]component{{diskJoin}}
	if !cfg.DisablePropagation {
		// Lazy index building couples index build with propagation;
		// eager building runs on punctuation arrival instead (§3.5).
		prop := []component{indexBuilding, propagation}
		if cfg.EagerIndex {
			prop = prop[1:]
		}
		for _, e := range []event{propagateRequest, propagateTimeExpire, propagateCountReach} {
			t[e] = [][]component{prop}
		}
		t[streamEmpty] = append(t[streamEmpty], prop)
	}
	return t
}

// String renders the table as the paper's Table 1, one line per row:
//
//	PurgeThresholdReachEvent [purge threshold reached] -> state-purge
func (t *table) String() string {
	var b strings.Builder
	for e, rows := range t {
		for _, row := range rows {
			b.WriteString(eventNames[e])
			if c := conditions[e]; c != "" {
				b.WriteString(" [" + c + "]")
			}
			b.WriteString(" -> ")
			for i, c := range row {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(c.String())
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// fire runs event e's rows in order. side is the side whose punctuations
// reached the purge threshold; a punctuation purges the opposite state
// (§2.2), and no other component reads it. The first component error
// aborts the dispatch.
func (j *PJoin) fire(e event, now stream.Time, side int) error {
	for _, row := range j.table[e] {
		for _, c := range row {
			var err error
			switch c {
			case statePurge:
				err = j.purgeState(1-side, now)
			case stateRelocation:
				err = j.relocate(now)
			case diskJoin:
				err = j.disk.Activate(now)
			case indexBuilding:
				j.indexBuild(0)
				j.indexBuild(1)
			case propagation:
				err = j.propagate(now, false)
			}
			if err != nil {
				return fmt.Errorf("core: %s -> %s: %w", e, c, err)
			}
		}
	}
	return nil
}

// Thresholds are the monitor's runtime parameters (paper §3.6: "all
// parameters for invoking the events ... are specified inside the
// monitor"). They are fixed when the join is built. Zero or negative
// values disable the corresponding event.
type Thresholds struct {
	// Purge is the number of punctuations to arrive between two state
	// purges (§3.4). 1 = eager purge.
	Purge int
	// MemoryBytes is the in-memory state size that triggers StateFull
	// (state relocation).
	MemoryBytes int64
	// DiskJoinIdle is how long both inputs must be stalled before
	// DiskJoinActivate fires (the disk join's activation threshold, §3.2).
	DiskJoinIdle stream.Time
	// PropagateCount is the count propagation threshold: punctuations
	// received since the last propagation (push mode, §3.5).
	PropagateCount int
	// PropagateTime is the time propagation threshold (push mode, §3.5).
	PropagateTime stream.Time
}

// monitor tracks the join's runtime parameters against its thresholds
// and says which events are due; the join fires them.
type monitor struct {
	th Thresholds

	punctsSincePurge [2]int // per arrival side
	punctsSinceProp  int
	lastProp         stream.Time
	lastActivity     stream.Time
	idleFired        bool
}

// punct records a punctuation arriving on side s at now and reports
// whether side s reached the purge threshold and whether the count
// propagation threshold was reached. A counter resets when its event is
// due.
func (m *monitor) punct(s int, now stream.Time) (purge, propagate bool) {
	m.lastActivity, m.idleFired = now, false
	m.punctsSincePurge[s]++
	purge = m.th.Purge > 0 && m.punctsSincePurge[s] >= m.th.Purge
	if purge {
		m.punctsSincePurge[s] = 0
	}
	m.punctsSinceProp++
	propagate = m.th.PropagateCount > 0 && m.punctsSinceProp >= m.th.PropagateCount
	if propagate {
		m.punctsSinceProp = 0
	}
	return purge, propagate
}

// tuple records a tuple arriving at now and reports whether the time
// propagation threshold elapsed since the last time it was reached.
func (m *monitor) tuple(now stream.Time) bool {
	m.lastActivity, m.idleFired = now, false
	if m.th.PropagateTime <= 0 || now-m.lastProp < m.th.PropagateTime {
		return false
	}
	m.lastProp = now
	return true
}

// full reports whether an in-memory state of size bytes is at or above
// the memory threshold: StateFull is due on every such check.
func (m *monitor) full(bytes int64) bool {
	return m.th.MemoryBytes > 0 && bytes >= m.th.MemoryBytes
}

// idle reports both inputs stalled at now: DiskJoinActivate is due once
// per stall, when the stall reaches the activation threshold.
func (m *monitor) idle(now stream.Time) bool {
	if m.idleFired || m.th.DiskJoinIdle <= 0 || now-m.lastActivity < m.th.DiskJoinIdle {
		return false
	}
	m.idleFired = true
	return true
}
