package store

import (
	"testing"

	"pjoin/internal/stream"
	"pjoin/internal/value"
)

func TestExpireMemPrefixBasics(t *testing.T) {
	st := mkState(t, 1)
	for i := int64(0); i < 10; i++ {
		st.Insert(tup(t, i, stream.Time(i*10)))
	}
	// Cutoff 45: tuples at ts 0,10,20,30,40 expire.
	expired := st.ExpireMemPrefix(0, 45)
	if len(expired) != 5 {
		t.Fatalf("expired %d, want 5", len(expired))
	}
	for i, s := range expired {
		if s.T.Ts != stream.Time(i*10) {
			t.Errorf("expired[%d].Ts = %d", i, s.T.Ts)
		}
	}
	if got := st.Stats(); got.MemTuples != 5 {
		t.Errorf("MemTuples = %d", got.MemTuples)
	}
	// Remaining tuples still probeable, in order.
	matches, _ := st.ProbeMem(value.Int(7), nil)
	if len(matches) != 1 {
		t.Error("in-window tuple lost")
	}
	matches, _ = st.ProbeMem(value.Int(3), nil)
	if len(matches) != 0 {
		t.Error("expired tuple still probeable")
	}
}

func TestExpireMemPrefixNothingExpired(t *testing.T) {
	st := mkState(t, 1)
	st.Insert(tup(t, 1, 100))
	if got := st.ExpireMemPrefix(0, 50); got != nil {
		t.Errorf("expired %v, want none", got)
	}
	if got := st.ExpireMemPrefix(0, 100); got != nil {
		t.Errorf("cutoff equal to ts should keep the tuple, expired %v", got)
	}
}

func TestExpireMemPrefixAll(t *testing.T) {
	st := mkState(t, 1)
	for i := int64(0); i < 4; i++ {
		st.Insert(tup(t, i, stream.Time(i)))
	}
	expired := st.ExpireMemPrefix(0, 1000)
	if len(expired) != 4 {
		t.Fatalf("expired %d", len(expired))
	}
	got := st.Stats()
	if got.MemTuples != 0 || got.MemBytes != 0 {
		t.Errorf("accounting after full expiry: %+v", got)
	}
	// Insert after expiry still works.
	st.Insert(tup(t, 9, 2000))
	if got := st.Stats().MemTuples; got != 1 {
		t.Errorf("MemTuples = %d", got)
	}
}

func TestExpireMemPrefixStopsAtFirstValid(t *testing.T) {
	// The prefix property: even if a LATER tuple (by position) had an
	// older timestamp it would not be touched — but State only appends
	// in arrival order, so positions == timestamp order. Verify the
	// contract by expiring with a cutoff between two tuples.
	st := mkState(t, 1)
	st.Insert(tup(t, 1, 10))
	st.Insert(tup(t, 2, 20))
	st.Insert(tup(t, 3, 30))
	expired := st.ExpireMemPrefix(0, 25)
	if len(expired) != 2 {
		t.Fatalf("expired %d, want 2", len(expired))
	}
	b := st.Bucket(0)
	rest := b.AppendMem(nil)
	if len(rest) != 1 || rest[0].T.Ts != 30 {
		t.Errorf("remaining = %v", rest)
	}
}
