package core

import (
	"slices"
	"testing"

	"pjoin/internal/op"
	"pjoin/internal/stream"
)

// TestEventNames: the seven events carry their names in the paper, in
// Table 1's order, and the components theirs.
func TestEventNames(t *testing.T) {
	var events []string
	for e := event(0); e < numEvents; e++ {
		events = append(events, e.String())
	}
	if want := []string{
		"StreamEmptyEvent", "PurgeThresholdReachEvent", "StateFullEvent", "DiskJoinActivateEvent",
		"PropagateRequestEvent", "PropagateTimeExpireEvent", "PropagateCountReachEvent",
	}; !slices.Equal(events, want) {
		t.Errorf("event names = %q, want %q", events, want)
	}
	var comps []string
	for c := statePurge; c <= propagation; c++ {
		comps = append(comps, c.String())
	}
	if want := []string{
		"state-purge", "state-relocation", "disk-join", "index-build", "punctuation-propagation",
	}; !slices.Equal(comps, want) {
		t.Errorf("component names = %q, want %q", comps, want)
	}
}

// TestFireRunsRowInOrder: a row's components run in the table's order,
// at the time the event fires. A lazy join releases a punctuation only
// once it is indexed, so the built order (index build, then propagation)
// releases a pending punctuation on the first request, and the reverse
// order only on the second.
func TestFireRunsRowInOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		row  []component // nil: the row the join built
		want []int       // punctuations released after each request
		at   stream.Time // the request that releases the punctuation
	}{
		{"built", nil, []int{1, 1}, 2},
		{"reversed", []component{propagation, indexBuilding}, []int{0, 1}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &op.Collector{}
			j, err := New(defaultConfig(), sink)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Process(0, punctFor(0, 1, 1).item, 1); err != nil {
				t.Fatal(err)
			}
			if tc.row != nil {
				j.table[propagateRequest] = [][]component{tc.row}
			}
			var got []int
			for now := stream.Time(2); now <= 3; now++ {
				if err := j.RequestPropagation(now); err != nil {
					t.Fatal(err)
				}
				got = append(got, len(sink.Puncts()))
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("released after each request = %v, want %v", got, tc.want)
			}
			if ts := sink.Puncts()[0].Ts; ts != tc.at {
				t.Errorf("punctuation released at %d, want %d", ts, tc.at)
			}
		})
	}
}

// TestFireRunsOnlyItsEventRows: firing an event runs its own rows and no
// other event's. Only StreamEmpty and the three propagation events index
// and release a pending punctuation, only PurgeThresholdReach purges,
// and with propagation off the propagation events have no rows and run
// nothing.
func TestFireRunsOnlyItsEventRows(t *testing.T) {
	for _, noProp := range []bool{false, true} {
		for e := event(0); e < numEvents; e++ {
			cfg := defaultConfig()
			cfg.Thresholds.Purge = 100 // no purge on arrival
			cfg.DisablePropagation = noProp
			sink := &op.Collector{}
			j, err := New(cfg, sink)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Process(0, punctFor(0, 1, 1).item, 1); err != nil {
				t.Fatal(err)
			}
			if err := j.fire(e, 2, 0); err != nil {
				t.Fatalf("%s: %v", e, err)
			}
			wantRelease := !noProp && (e == streamEmpty || e >= propagateRequest)
			if released := len(sink.Puncts()) > 0; released != wantRelease {
				t.Errorf("propagation off %v: %s released a punctuation: %v, want %v", noProp, e, released, wantRelease)
			}
			wantPurge := e == purgeThresholdReach
			if purged := j.Metrics().PurgeRuns > 0; purged != wantPurge {
				t.Errorf("propagation off %v: %s ran a purge: %v, want %v", noProp, e, purged, wantPurge)
			}
		}
	}
}

// TestFirePurgesOppositeOfSide: PurgeThresholdReach purges the state
// opposite the side that reached the threshold, for either side.
func TestFirePurgesOppositeOfSide(t *testing.T) {
	for side := 0; side < 2; side++ {
		cfg := defaultConfig()
		cfg.Thresholds.Purge = 100 // no purge on arrival
		j, err := New(cfg, &op.Collector{})
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range []feedItem{tupA(1, "a", 1), tupB(1, "b", 2), punctFor(0, 1, 3), punctFor(1, 1, 4)} {
			if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.fire(purgeThresholdReach, 5, side); err != nil {
			t.Fatal(err)
		}
		a, b := j.StateStats()
		want := [2]int{1, 1}
		want[1-side] = 0
		if got := [2]int{a.TotalTuples(), b.TotalTuples()}; got != want {
			t.Errorf("side %d reached the threshold: states %v, want %v", side, got, want)
		}
	}
}

// TestStreamEmptyAndPullRequestPropagate: with no push threshold, a pull
// request releases what is propagable, and both inputs ending fires
// StreamEmpty, which releases the rest before Finish.
func TestStreamEmptyAndPullRequestPropagate(t *testing.T) {
	sink := &op.Collector{}
	j, err := New(defaultConfig(), sink)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	step := func(fi feedItem) {
		t.Helper()
		if err := j.Process(fi.port, fi.item, fi.item.Ts); err != nil {
			t.Fatal(err)
		}
		got = append(got, len(sink.Puncts()))
	}
	step(punctFor(0, 1, 1))
	if err := j.RequestPropagation(2); err != nil {
		t.Fatal(err)
	}
	got = append(got, len(sink.Puncts()))
	step(punctFor(1, 2, 3))
	step(feedItem{0, stream.EOSItem(4)})
	step(feedItem{1, stream.EOSItem(5)})
	if want := []int{0, 1, 1, 1, 2}; !slices.Equal(got, want) {
		t.Errorf("released after each step = %v, want %v", got, want)
	}
}
