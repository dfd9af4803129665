package event

import (
	"errors"
	"strings"
	"testing"
)

type recorder struct {
	name string
	got  []Event
	err  error
}

func (r *recorder) Name() string { return r.name }
func (r *recorder) Handle(e Event) error {
	r.got = append(r.got, e)
	return r.err
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		StreamEmpty:         "StreamEmptyEvent",
		PurgeThresholdReach: "PurgeThresholdReachEvent",
		StateFull:           "StateFullEvent",
		DiskJoinActivate:    "DiskJoinActivateEvent",
		PropagateRequest:    "PropagateRequestEvent",
		PropagateTimeExpire: "PropagateTimeExpireEvent",
		PropagateCountReach: "PropagateCountReachEvent",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Kind(99), nil, ""); err == nil {
		t.Error("unknown kind should error")
	}
	if err := r.Register(StateFull, nil, ""); err == nil {
		t.Error("no listeners should error")
	}
	if err := r.Register(StateFull, nil, "", nil); err == nil {
		t.Error("nil listener should error")
	}
}

func TestDispatchOrderAndPayload(t *testing.T) {
	r := NewRegistry()
	a := &recorder{name: "a"}
	b := &recorder{name: "b"}
	c := &recorder{name: "c"}
	if err := r.Register(PurgeThresholdReach, nil, "", a, b); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(PurgeThresholdReach, nil, "", c); err != nil {
		t.Fatal(err)
	}
	ev := Event{Kind: PurgeThresholdReach, At: 42, Side: SideB}
	if err := r.Dispatch(ev); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*recorder{a, b, c} {
		if len(rec.got) != 1 {
			t.Fatalf("%s saw %d events", rec.name, len(rec.got))
		}
		if rec.got[0].At != 42 || rec.got[0].Side != SideB {
			t.Errorf("%s event = %+v", rec.name, rec.got[0])
		}
	}
}

func TestDispatchCondition(t *testing.T) {
	r := NewRegistry()
	rec := &recorder{name: "x"}
	cond := func(e Event) bool { return e.Side == SideA }
	r.Register(PurgeThresholdReach, cond, "only side A", rec)
	r.Dispatch(Event{Kind: PurgeThresholdReach, Side: SideB})
	if len(rec.got) != 0 {
		t.Error("condition should have blocked dispatch")
	}
	r.Dispatch(Event{Kind: PurgeThresholdReach, Side: SideA})
	if len(rec.got) != 1 {
		t.Error("condition should have passed dispatch")
	}
}

func TestDispatchWrongKindNotDelivered(t *testing.T) {
	r := NewRegistry()
	rec := &recorder{name: "x"}
	r.Register(StateFull, nil, "", rec)
	r.Dispatch(Event{Kind: StreamEmpty})
	if len(rec.got) != 0 {
		t.Error("listener got an event of a different kind")
	}
	if err := r.Dispatch(Event{Kind: Kind(99)}); err == nil {
		t.Error("unknown kind dispatch should error")
	}
}

func TestDispatchErrorAborts(t *testing.T) {
	r := NewRegistry()
	bad := &recorder{name: "bad", err: errors.New("boom")}
	after := &recorder{name: "after"}
	r.Register(StateFull, nil, "", bad, after)
	err := r.Dispatch(Event{Kind: StateFull})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Errorf("error should name the listener: %v", err)
	}
	if len(after.got) != 0 {
		t.Error("listener after the failing one should not run")
	}
}

func TestListenerFunc(t *testing.T) {
	calls := 0
	l := ListenerFunc{ID: "fn", Fn: func(Event) error { calls++; return nil }}
	if l.Name() != "fn" {
		t.Error("Name wrong")
	}
	r := NewRegistry()
	r.Register(PropagateRequest, nil, "", l)
	r.Dispatch(Event{Kind: PropagateRequest})
	if calls != 1 {
		t.Errorf("calls = %d", calls)
	}
}

func TestRegistryStringTableOne(t *testing.T) {
	// Reproduce the shape of the paper's Table 1: lazy purge, lazy index
	// build + push-mode (count) propagation.
	r := NewRegistry()
	r.Register(PurgeThresholdReach, nil, "purge threshold reached",
		ListenerFunc{ID: "state-purge", Fn: func(Event) error { return nil }})
	r.Register(PropagateCountReach, nil, "count propagation threshold reached",
		ListenerFunc{ID: "index-build", Fn: func(Event) error { return nil }},
		ListenerFunc{ID: "punctuation-propagation", Fn: func(Event) error { return nil }})
	r.Register(StateFull, nil, "memory threshold reached",
		ListenerFunc{ID: "state-relocation", Fn: func(Event) error { return nil }})
	s := r.String()
	for _, want := range []string{
		"PurgeThresholdReachEvent [purge threshold reached] -> state-purge",
		"PropagateCountReachEvent [count propagation threshold reached] -> index-build, punctuation-propagation",
		"StateFullEvent [memory threshold reached] -> state-relocation",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("registry table missing %q in:\n%s", want, s)
		}
	}
	// Listener order within a row is the execution order.
	if idx, jdx := strings.Index(s, "index-build"), strings.Index(s, "punctuation-propagation"); idx > jdx {
		t.Error("listener order not preserved in table")
	}
}

func TestSide(t *testing.T) {
	if SideA.String() != "A" || SideB.String() != "B" {
		t.Error("side names wrong")
	}
	if SideA.Opposite() != SideB || SideB.Opposite() != SideA {
		t.Error("Opposite broken")
	}
}
