package event

import (
	"fmt"

	"pjoin/internal/stream"
)

// Side identifies one of a binary join's inputs in event payloads and
// monitor counters.
type Side int

// The two sides of a binary join.
const (
	SideA Side = 0
	SideB Side = 1
)

// String returns "A" or "B".
func (s Side) String() string {
	if s == SideA {
		return "A"
	}
	return "B"
}

// Opposite returns the other side.
func (s Side) Opposite() Side { return 1 - s }

// Thresholds are the monitor's runtime parameters (paper §3.6: "all
// parameters for invoking the events ... are specified inside the
// monitor"). They are fixed when the monitor is built; the paper's
// "can also be changed at runtime" has no caller here (DESIGN.md §14).
// Zero or negative values disable the corresponding event.
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

// Monitor tracks the runtime parameters of a running join and invokes
// events through the registry when thresholds are reached. The join
// calls the On* hooks from its processing path; listeners registered for
// the resulting events implement the actual components.
type Monitor struct {
	reg *Registry
	th  Thresholds

	punctsSincePurge [2]int // per side
	punctsSinceProp  int
	lastProp         stream.Time
	lastActivity     stream.Time
	idleFired        bool
}

// NewMonitor returns a monitor dispatching through reg with the given
// thresholds.
func NewMonitor(reg *Registry, th Thresholds) (*Monitor, error) {
	if reg == nil {
		return nil, fmt.Errorf("event: NewMonitor: nil registry")
	}
	return &Monitor{reg: reg, th: th}, nil
}

// CurrentThresholds returns the active runtime parameters.
func (m *Monitor) CurrentThresholds() Thresholds { return m.th }

// PunctsSincePurge returns the punctuation count for side since that
// side's last purge (a monitored runtime parameter).
func (m *Monitor) PunctsSincePurge(s Side) int { return m.punctsSincePurge[s] }

// PunctArrived records a punctuation arrival on side s and fires
// PurgeThresholdReach and/or PropagateCountReach when their counters
// reach the thresholds. Counters reset when their event fires.
//
// A punctuation from side s purges the OPPOSITE state (§2.2 purge
// rules), so the purge counter is tracked per arrival side and the
// event's Side is the side whose punctuations accumulated.
func (m *Monitor) PunctArrived(s Side, now stream.Time) error {
	m.lastActivity = now
	m.idleFired = false
	m.punctsSincePurge[s]++
	if m.th.Purge > 0 && m.punctsSincePurge[s] >= m.th.Purge {
		m.punctsSincePurge[s] = 0
		if err := m.reg.Dispatch(Event{Kind: PurgeThresholdReach, At: now, Side: s}); err != nil {
			return err
		}
	}
	m.punctsSinceProp++
	if m.th.PropagateCount > 0 && m.punctsSinceProp >= m.th.PropagateCount {
		m.punctsSinceProp = 0
		if err := m.reg.Dispatch(Event{Kind: PropagateCountReach, At: now}); err != nil {
			return err
		}
	}
	return nil
}

// TupleArrived records data activity (resets the idle tracking) and
// checks the time propagation threshold.
func (m *Monitor) TupleArrived(now stream.Time) error {
	m.lastActivity = now
	m.idleFired = false
	return m.checkPropagateTime(now)
}

// StateSize reports the current in-memory state size; StateFull fires
// each time the size is at or above the memory threshold.
func (m *Monitor) StateSize(bytes int64, now stream.Time) error {
	if m.th.MemoryBytes > 0 && bytes >= m.th.MemoryBytes {
		return m.reg.Dispatch(Event{Kind: StateFull, At: now, Bytes: bytes})
	}
	return nil
}

// Idle reports that both inputs are currently stalled at time now.
// DiskJoinActivate fires once per stall when the idle duration reaches
// the activation threshold; StreamEmpty is separate (see StreamsEnded).
func (m *Monitor) Idle(now stream.Time) error {
	if m.idleFired || m.th.DiskJoinIdle <= 0 {
		return nil
	}
	if now-m.lastActivity >= m.th.DiskJoinIdle {
		m.idleFired = true
		return m.reg.Dispatch(Event{Kind: DiskJoinActivate, At: now})
	}
	return nil
}

// StreamsEnded fires StreamEmpty: both inputs have run out of tuples.
func (m *Monitor) StreamsEnded(now stream.Time) error {
	return m.reg.Dispatch(Event{Kind: StreamEmpty, At: now})
}

// RequestPropagation fires PropagateRequest on behalf of a downstream
// operator (pull mode, §3.5).
func (m *Monitor) RequestPropagation(now stream.Time) error {
	return m.reg.Dispatch(Event{Kind: PropagateRequest, At: now})
}

// checkPropagateTime fires PropagateTimeExpire when the time threshold
// has elapsed since the last propagation tick.
func (m *Monitor) checkPropagateTime(now stream.Time) error {
	if m.th.PropagateTime <= 0 {
		return nil
	}
	if now-m.lastProp >= m.th.PropagateTime {
		m.lastProp = now
		return m.reg.Dispatch(Event{Kind: PropagateTimeExpire, At: now})
	}
	return nil
}
