package store

import (
	"errors"
	"testing"
)

// readOnce opens a scan of the partition and makes one cursor Read: one
// counted FaultRead operation.
func readOnce(fs *FaultSpill, part int) error {
	sc, err := fs.OpenScan(part, nil)
	if err != nil {
		return err
	}
	defer sc.Close()
	_, err = sc.Read(make([]byte, 64))
	return err
}

func TestFaultSpillFailsFromNthOp(t *testing.T) {
	boom := errors.New("boom")
	fs := NewFaultSpill(NewMemSpill(), FaultAny, 3, boom)
	defer fs.Close()
	if err := fs.Append(0, []byte("a")); err != nil { // op 1
		t.Fatal(err)
	}
	if err := readOnce(fs, 0); err != nil { // op 2
		t.Fatal(err)
	}
	if err := fs.Append(0, []byte("b")); !errors.Is(err, boom) { // op 3: fail
		t.Fatalf("3rd op should fail, got %v", err)
	}
	// The fault is sticky: later ops fail too.
	if err := readOnce(fs, 0); !errors.Is(err, boom) {
		t.Fatalf("post-fault read should fail, got %v", err)
	}
	// The inner store never saw the failed append.
	st, err := fs.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.WriteOps != 1 {
		t.Errorf("inner WriteOps = %d, want 1", st.WriteOps)
	}
}

func TestFaultSpillMaskSelectsOps(t *testing.T) {
	boom := errors.New("boom")
	fs := NewFaultSpill(NewMemSpill(), FaultRead, 1, boom)
	defer fs.Close()
	// Appends are not counted and never fail.
	for i := 0; i < 5; i++ {
		if err := fs.Append(0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := readOnce(fs, 0); !errors.Is(err, boom) {
		t.Fatalf("first read should fail, got %v", err)
	}
	if err := fs.Append(0, []byte("y")); err != nil {
		t.Errorf("append still works after read fault: %v", err)
	}
}

func TestFaultSpillZeroNeverFails(t *testing.T) {
	fs := NewFaultSpill(NewMemSpill(), FaultAny, 0, nil)
	defer fs.Close()
	for i := 0; i < 100; i++ {
		if err := fs.Append(0, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
}
