package event

import (
	"errors"
	"testing"

	"pjoin/internal/stream"
)

func countingRegistry(kinds ...Kind) (*Registry, map[Kind]*int) {
	r := NewRegistry()
	counts := map[Kind]*int{}
	for _, k := range kinds {
		n := new(int)
		counts[k] = n
		r.Register(k, nil, "", ListenerFunc{ID: k.String(), Fn: func(Event) error {
			*n++
			return nil
		}})
	}
	return r, counts
}

func TestNewMonitorNilRegistry(t *testing.T) {
	if _, err := NewMonitor(nil, Thresholds{}); err == nil {
		t.Error("nil registry should error")
	}
}

func TestPurgeThresholdPerSide(t *testing.T) {
	r, counts := countingRegistry(PurgeThresholdReach)
	m, _ := NewMonitor(r, Thresholds{Purge: 3})
	// Two As and two Bs: neither side reaches 3.
	for i := 0; i < 2; i++ {
		m.PunctArrived(SideA, stream.Time(i))
		m.PunctArrived(SideB, stream.Time(i))
	}
	if *counts[PurgeThresholdReach] != 0 {
		t.Fatal("fired before threshold")
	}
	if m.PunctsSincePurge(SideA) != 2 || m.PunctsSincePurge(SideB) != 2 {
		t.Error("per-side counters wrong")
	}
	m.PunctArrived(SideA, 10)
	if *counts[PurgeThresholdReach] != 1 {
		t.Fatal("side A should have fired")
	}
	if m.PunctsSincePurge(SideA) != 0 {
		t.Error("counter should reset after firing")
	}
	if m.PunctsSincePurge(SideB) != 2 {
		t.Error("side B counter must be untouched")
	}
}

func TestPurgeEventCarriesSide(t *testing.T) {
	r := NewRegistry()
	var gotSide Side = -1
	r.Register(PurgeThresholdReach, nil, "", ListenerFunc{ID: "p", Fn: func(e Event) error {
		gotSide = e.Side
		return nil
	}})
	m, _ := NewMonitor(r, Thresholds{Purge: 1})
	m.PunctArrived(SideB, 5)
	if gotSide != SideB {
		t.Errorf("event side = %v", gotSide)
	}
}

func TestEagerPurgeIsThresholdOne(t *testing.T) {
	r, counts := countingRegistry(PurgeThresholdReach)
	m, _ := NewMonitor(r, Thresholds{Purge: 1})
	for i := 0; i < 5; i++ {
		m.PunctArrived(SideA, stream.Time(i))
	}
	if *counts[PurgeThresholdReach] != 5 {
		t.Errorf("eager purge fired %d times, want 5", *counts[PurgeThresholdReach])
	}
}

func TestPurgeDisabled(t *testing.T) {
	r, counts := countingRegistry(PurgeThresholdReach)
	m, _ := NewMonitor(r, Thresholds{Purge: 0})
	for i := 0; i < 10; i++ {
		m.PunctArrived(SideA, stream.Time(i))
	}
	if *counts[PurgeThresholdReach] != 0 {
		t.Error("disabled purge threshold fired")
	}
}

func TestPropagateCountThreshold(t *testing.T) {
	r, counts := countingRegistry(PropagateCountReach)
	m, _ := NewMonitor(r, Thresholds{PropagateCount: 4})
	// Propagation counter is global across sides.
	m.PunctArrived(SideA, 1)
	m.PunctArrived(SideB, 2)
	m.PunctArrived(SideA, 3)
	if *counts[PropagateCountReach] != 0 {
		t.Fatal("fired early")
	}
	m.PunctArrived(SideB, 4)
	if *counts[PropagateCountReach] != 1 {
		t.Fatal("should fire at 4 punctuations")
	}
	m.PunctArrived(SideA, 5)
	if *counts[PropagateCountReach] != 1 {
		t.Error("counter should have reset")
	}
}

func TestStateFull(t *testing.T) {
	r, counts := countingRegistry(StateFull)
	m, _ := NewMonitor(r, Thresholds{MemoryBytes: 1000})
	m.StateSize(999, 1)
	if *counts[StateFull] != 0 {
		t.Fatal("fired below threshold")
	}
	m.StateSize(1000, 2)
	m.StateSize(2000, 3)
	if *counts[StateFull] != 2 {
		t.Errorf("fired %d times, want 2", *counts[StateFull])
	}
	// The size travels typed: the event carries it, and a dispatch boxes
	// nothing (the relocation trigger fires on every oversized arrival).
	var got int64
	r.Register(StateFull, nil, "", ListenerFunc{ID: "size", Fn: func(e Event) error {
		got = e.Bytes
		return nil
	}})
	if allocs := testing.AllocsPerRun(100, func() { m.StateSize(2000, 3) }); allocs != 0 || got != 2000 {
		t.Errorf("StateFull carried %d bytes and allocated %.1f objects per dispatch, want 2000 and 0", got, allocs)
	}
	// A monitor built with the threshold disabled never fires it.
	fired := *counts[StateFull]
	off, _ := NewMonitor(r, Thresholds{MemoryBytes: 0})
	off.StateSize(1<<40, 4)
	if *counts[StateFull] != fired {
		t.Error("disabled memory threshold fired")
	}
}

func TestDiskJoinActivateOncePerStall(t *testing.T) {
	r, counts := countingRegistry(DiskJoinActivate)
	m, _ := NewMonitor(r, Thresholds{DiskJoinIdle: 10})
	m.TupleArrived(100)
	m.Idle(105)
	if *counts[DiskJoinActivate] != 0 {
		t.Fatal("fired before activation threshold")
	}
	m.Idle(110)
	if *counts[DiskJoinActivate] != 1 {
		t.Fatal("should fire at threshold")
	}
	m.Idle(500)
	if *counts[DiskJoinActivate] != 1 {
		t.Error("must fire once per stall")
	}
	// New activity resets; a new stall fires again.
	m.TupleArrived(600)
	m.Idle(610)
	if *counts[DiskJoinActivate] != 2 {
		t.Error("new stall should fire again")
	}
	// Punctuation activity also resets the stall tracking.
	m.PunctArrived(SideA, 700)
	m.Idle(710)
	if *counts[DiskJoinActivate] != 3 {
		t.Error("stall after punctuation should fire")
	}
}

func TestDiskJoinDisabled(t *testing.T) {
	r, counts := countingRegistry(DiskJoinActivate)
	m, _ := NewMonitor(r, Thresholds{})
	m.Idle(1000)
	if *counts[DiskJoinActivate] != 0 {
		t.Error("disabled idle threshold fired")
	}
}

func TestPropagateTimeExpire(t *testing.T) {
	r, counts := countingRegistry(PropagateTimeExpire)
	m, _ := NewMonitor(r, Thresholds{PropagateTime: 100})
	m.TupleArrived(50)
	if *counts[PropagateTimeExpire] != 0 {
		t.Fatal("fired before interval")
	}
	m.TupleArrived(100)
	if *counts[PropagateTimeExpire] != 1 {
		t.Fatal("should fire at interval")
	}
	m.TupleArrived(150)
	if *counts[PropagateTimeExpire] != 1 {
		t.Error("should not fire again until another interval passes")
	}
	m.TupleArrived(200)
	if *counts[PropagateTimeExpire] != 2 {
		t.Error("second interval should fire")
	}
}

func TestStreamsEndedAndPullRequest(t *testing.T) {
	r, counts := countingRegistry(StreamEmpty, PropagateRequest)
	m, _ := NewMonitor(r, Thresholds{})
	m.StreamsEnded(9)
	if *counts[StreamEmpty] != 1 {
		t.Error("StreamEmpty not dispatched")
	}
	m.RequestPropagation(10)
	if *counts[PropagateRequest] != 1 {
		t.Error("PropagateRequest not dispatched")
	}
}

func TestMonitorPropagatesListenerErrors(t *testing.T) {
	r := NewRegistry()
	boom := errors.New("boom")
	r.Register(PurgeThresholdReach, nil, "", ListenerFunc{ID: "p", Fn: func(Event) error { return boom }})
	m, _ := NewMonitor(r, Thresholds{Purge: 1})
	if err := m.PunctArrived(SideA, 1); err == nil {
		t.Error("listener error should surface from PunctArrived")
	}
}
