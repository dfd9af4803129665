package core

import (
	"testing"

	"pjoin/internal/punct"
	"pjoin/internal/store"
)

// StatesForTest and SetsForTest let external tests (the ones that need
// internal/oracle, which imports this package) read the punctuation
// index: every stored tuple's pid and every entry's count.
func (j *PJoin) StatesForTest() [2]*store.State { return j.base.States }

func (j *PJoin) SetsForTest() [2]*punct.Set { return j.psets }

// ForEachDiskForTest calls fn for every tuple of bucket i's on-disk
// portion, decoded, through a scan of its own: no pass may be in flight,
// and the tuples die with the state's next scan (store.DiskScan.Next).
func ForEachDiskForTest(t *testing.T, st *store.State, i int, fn func(*store.StoredTuple)) {
	t.Helper()
	ds, err := st.OpenDiskScan(i)
	if err != nil {
		t.Fatal(err)
	}
	if ds == nil {
		return
	}
	var disk []*store.StoredTuple
	for done := false; !done; {
		if disk, done, err = ds.Next(0, disk); err != nil {
			t.Fatal(err)
		}
	}
	for j, sd := range disk {
		if err := ds.Decode(j); err != nil {
			t.Fatal(err)
		}
		fn(sd)
	}
	if err := st.FinishDiskScan(ds, nil, false); err != nil {
		t.Fatal(err)
	}
}
