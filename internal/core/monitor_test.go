package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"pjoin/internal/op"
	"pjoin/internal/store"
	"pjoin/internal/stream"
)

// TestMonitorPurgeThresholdPerSide: the purge count is kept per arrival
// side and resets when its event is due.
func TestMonitorPurgeThresholdPerSide(t *testing.T) {
	m := monitor{th: Thresholds{Purge: 3}}
	for i := 0; i < 2; i++ {
		for s := 0; s < 2; s++ {
			if purge, _ := m.punct(s, stream.Time(i)); purge {
				t.Fatalf("side %d purged after %d punctuations, threshold 3", s, i+1)
			}
		}
	}
	if purge, _ := m.punct(0, 10); !purge {
		t.Fatal("side A's third punctuation did not purge")
	}
	if m.punctsSincePurge != [2]int{0, 2} {
		t.Errorf("counts after side A purged = %v, want [0 2]", m.punctsSincePurge)
	}
}

// purgesIn counts the punctuations, of n on side A, after which a monitor
// with purge threshold th reports the purge due.
func purgesIn(th, n int) int {
	m := monitor{th: Thresholds{Purge: th}}
	fired := 0
	for i := 0; i < n; i++ {
		if purge, _ := m.punct(0, stream.Time(i)); purge {
			fired++
		}
	}
	return fired
}

// TestMonitorEagerPurgeIsThresholdOne: threshold 1 purges on every
// punctuation.
func TestMonitorEagerPurgeIsThresholdOne(t *testing.T) {
	if got := purgesIn(1, 5); got != 5 {
		t.Errorf("threshold 1 purged %d times in 5 punctuations, want 5", got)
	}
}

// TestMonitorPurgeDisabled: threshold 0 never purges.
func TestMonitorPurgeDisabled(t *testing.T) {
	if got := purgesIn(0, 10); got != 0 {
		t.Errorf("threshold 0 purged %d times in 10 punctuations, want none", got)
	}
}

// TestMonitorPropagateCount: the count propagation threshold counts both
// sides' punctuations together and resets when it is reached.
func TestMonitorPropagateCount(t *testing.T) {
	m := monitor{th: Thresholds{PropagateCount: 4}}
	var got []bool
	for i, s := range []int{0, 1, 0, 1, 0} {
		_, prop := m.punct(s, stream.Time(i))
		got = append(got, prop)
	}
	if want := []bool{false, false, false, true, false}; !slices.Equal(got, want) {
		t.Errorf("count propagation due = %v, want %v", got, want)
	}
}

// TestMonitorPropagateTime: the time propagation threshold is reached
// once per elapsed interval, counted from the last time it was reached.
func TestMonitorPropagateTime(t *testing.T) {
	m := monitor{th: Thresholds{PropagateTime: 100}}
	var got []bool
	for _, now := range []stream.Time{50, 100, 150, 200} {
		got = append(got, m.tuple(now))
	}
	if want := []bool{false, true, false, true}; !slices.Equal(got, want) {
		t.Errorf("time propagation due = %v, want %v", got, want)
	}
}

// TestMonitorStateFull: StateFull is due on every check at or above the
// memory threshold, and never with the threshold off.
func TestMonitorStateFull(t *testing.T) {
	m := monitor{th: Thresholds{MemoryBytes: 1000}}
	var got []bool
	for _, b := range []int64{999, 1000, 2000, 2000} {
		got = append(got, m.full(b))
	}
	if want := []bool{false, true, true, true}; !slices.Equal(got, want) {
		t.Errorf("StateFull due = %v, want %v", got, want)
	}
	if off := (monitor{}); off.full(1 << 40) {
		t.Error("StateFull due with the memory threshold off")
	}
}

// TestMonitorDiskJoinOncePerStall: DiskJoinActivate is due once per
// stall, when the stall reaches the activation threshold; a tuple or a
// punctuation ends the stall.
func TestMonitorDiskJoinOncePerStall(t *testing.T) {
	m := monitor{th: Thresholds{DiskJoinIdle: 10}}
	m.tuple(100)
	var got []bool
	for _, now := range []stream.Time{105, 110, 500} {
		got = append(got, m.idle(now))
	}
	m.tuple(600)
	got = append(got, m.idle(610))
	m.punct(0, 700)
	got = append(got, m.idle(710))
	if want := []bool{false, true, false, true, true}; !slices.Equal(got, want) {
		t.Errorf("DiskJoinActivate due = %v, want %v", got, want)
	}
}

// TestMonitorDiskJoinDisabled: with the activation threshold off,
// DiskJoinActivate is never due.
func TestMonitorDiskJoinDisabled(t *testing.T) {
	m := monitor{}
	for _, now := range []stream.Time{0, 1000, 1 << 40} {
		if m.idle(now) {
			t.Errorf("DiskJoinActivate due at %d with the activation threshold off", now)
		}
	}
}

// TestPurgeFiresOnOppositeState: a side's punctuations count toward its
// own purge threshold, and reaching it purges the opposite state.
func TestPurgeFiresOnOppositeState(t *testing.T) {
	cfg := defaultConfig()
	cfg.Thresholds.Purge = 2
	j, err := New(cfg, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	states := func() [2]int {
		a, b := j.StateStats()
		return [2]int{a.TotalTuples(), b.TotalTuples()}
	}
	for _, fi := range []feedItem{
		tupA(1, "a", 1), tupA(2, "a", 2), tupA(3, "a", 3), tupB(4, "b", 4), tupB(5, "b", 5),
		punctFor(1, 1, 6), // B's first: no purge
		punctFor(0, 4, 7), // A's first: no purge, though two arrived in all
	} {
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
	}
	if got := states(); got != [2]int{3, 2} || j.Metrics().PurgeRuns != 0 {
		t.Fatalf("after one punctuation per side: states %v, %d purge runs; want [3 2] and none",
			got, j.Metrics().PurgeRuns)
	}
	// B's second reaches B's threshold: A's keys 1 and 2 go, B keeps key 4.
	if err := j.Process(1, punctFor(1, 2, 8).item, 8); err != nil {
		t.Fatal(err)
	}
	if got := states(); got != [2]int{1, 2} || j.Metrics().PurgeRuns != 1 {
		t.Errorf("after B's second punctuation: states %v, %d purge runs; want [1 2] and one",
			got, j.Metrics().PurgeRuns)
	}
}

// feedAlternating sends n tuples to j, alternating A and B over five keys.
func feedAlternating(j *PJoin, n int) error {
	for i := 0; i < n; i++ {
		fi := tupA(int64(i%5), "payload", stream.Time(2*i+1))
		if i%2 == 1 {
			fi = tupB(int64(i%5), "payload", stream.Time(2*i+1))
		}
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			return err
		}
	}
	return nil
}

// TestComponentErrorSurfacesFromProcess: an error of a component an
// arrival fires surfaces from Process, naming the event and the
// component. A spill that cannot be written fails the relocation that
// StateFull runs.
func TestComponentErrorSurfacesFromProcess(t *testing.T) {
	boom := errors.New("disk gone")
	cfg := defaultConfig()
	cfg.Thresholds.MemoryBytes = 256
	cfg.SpillA = store.NewFaultSpill(store.NewMemSpill(), store.FaultAppend, 1, boom)
	cfg.SpillB = store.NewFaultSpill(store.NewMemSpill(), store.FaultAppend, 1, boom)
	j, err := New(cfg, &op.Collector{})
	if err != nil {
		t.Fatal(err)
	}
	err = feedAlternating(j, 40)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "StateFullEvent -> state-relocation") {
		t.Errorf("error = %v, want the injected fault named StateFullEvent -> state-relocation", err)
	}
}

// TestComponentErrorAbortsDispatch: a component's error ends its event's
// dispatch, and the error names the event and the component. StreamEmpty
// runs disk-join before propagation: with the disk unreadable, the disk
// join fails and the lazy index build that precedes propagation never
// runs.
func TestComponentErrorAbortsDispatch(t *testing.T) {
	boom := errors.New("disk gone")
	cfg := defaultConfig()
	cfg.Thresholds.MemoryBytes = 256
	cfg.SpillA = store.NewFaultSpill(store.NewMemSpill(), store.FaultRead, 1, boom)
	cfg.SpillB = store.NewFaultSpill(store.NewMemSpill(), store.FaultRead, 1, boom)
	sink := &op.Collector{}
	j, err := New(cfg, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedAlternating(j, 40); err != nil {
		t.Fatal(err)
	}
	// An unindexed punctuation over a key A's state holds.
	if err := j.Process(0, punctFor(0, 1, 100).item, 100); err != nil {
		t.Fatal(err)
	}
	if !j.base.States[0].AnyDisk() && !j.base.States[1].AnyDisk() {
		t.Fatal("nothing spilled: the disk join has nothing to read")
	}
	walk := j.Metrics().IndexWalk
	if err := j.Process(0, stream.EOSItem(101), 101); err != nil {
		t.Fatal(err)
	}
	err = j.Process(1, stream.EOSItem(102), 102)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "StreamEmptyEvent -> disk-join") {
		t.Fatalf("error = %v, want the injected fault named StreamEmptyEvent -> disk-join", err)
	}
	if got := j.Metrics().IndexWalk; got != walk {
		t.Errorf("index build ran after the disk join failed: IndexWalk %d -> %d", walk, got)
	}
	if n := len(sink.Puncts()); n != 0 {
		t.Errorf("%d punctuations released after the disk join failed", n)
	}
}
