package store

import (
	"bytes"
	"io"
	"testing"
)

// readPart reads the partition's whole contents through one scan cursor.
func readPart(s SpillStore, part int) ([]byte, error) {
	sc, err := s.OpenScan(part, nil)
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	return io.ReadAll(sc)
}

// spillSuite runs the SpillStore contract against any implementation.
func spillSuite(t *testing.T, mk func(t *testing.T) SpillStore) {
	t.Run("empty partition reads empty", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		got, err := readPart(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("fresh partition has %d bytes", len(got))
		}
	})

	t.Run("append accumulates", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		if err := s.Append(0, []byte("hello ")); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(0, []byte("world")); err != nil {
			t.Fatal(err)
		}
		got, err := readPart(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte("hello world")) {
			t.Errorf("Read = %q", got)
		}
	})

	t.Run("partitions are independent", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		s.Append(1, []byte("one"))
		s.Append(2, []byte("two"))
		got1, _ := readPart(s, 1)
		got2, _ := readPart(s, 2)
		if string(got1) != "one" || string(got2) != "two" {
			t.Errorf("partition mixup: %q %q", got1, got2)
		}
	})

	t.Run("truncate clears one partition", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		s.Append(1, []byte("one"))
		s.Append(2, []byte("two"))
		if err := s.Truncate(1); err != nil {
			t.Fatal(err)
		}
		if got, _ := readPart(s, 1); len(got) != 0 {
			t.Errorf("partition 1 not empty after truncate: %q", got)
		}
		if got, _ := readPart(s, 2); string(got) != "two" {
			t.Errorf("truncate leaked to partition 2: %q", got)
		}
		// Append after truncate works.
		s.Append(1, []byte("new"))
		if got, _ := readPart(s, 1); string(got) != "new" {
			t.Errorf("append after truncate: %q", got)
		}
	})

	t.Run("stats count traffic", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		s.Append(0, make([]byte, 100))
		s.Append(0, make([]byte, 50))
		readPart(s, 0)
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.WriteOps != 2 || st.BytesWritten != 150 {
			t.Errorf("write stats = %+v", st)
		}
		if st.ReadOps != 1 || st.BytesRead != 150 {
			t.Errorf("read stats = %+v", st)
		}
	})

	t.Run("closed store errors", func(t *testing.T) {
		// Every method must answer "closed" uniformly — including Stats,
		// which historically leaked a zero value instead.
		s := mk(t)
		s.Append(0, []byte("x"))
		s.Close()
		if err := s.Append(0, []byte("x")); err == nil {
			t.Error("Append after Close should error")
		}
		if _, err := s.OpenScan(0, nil); err == nil {
			t.Error("OpenScan after Close should error")
		}
		if err := s.Truncate(0); err == nil {
			t.Error("Truncate after Close should error")
		}
		if _, err := s.Stats(); err == nil {
			t.Error("Stats after Close should error")
		}
	})
}

func TestMemSpill(t *testing.T) {
	spillSuite(t, func(t *testing.T) SpillStore { return NewMemSpill() })
}

// TestMemSpillReadReturnsCopy: a cursor's Read copies into the caller's
// buffer, so writing into what it filled leaves the store's bytes alone.
func TestMemSpillReadReturnsCopy(t *testing.T) {
	s := NewMemSpill()
	defer s.Close()
	s.Append(0, []byte("abc"))
	sc, err := s.OpenScan(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err := sc.Read(buf)
	if err != nil || string(buf[:n]) != "abc" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	buf[0] = 'X'
	if again, _ := readPart(s, 0); string(again) != "abc" {
		t.Errorf("store reads %q after the caller wrote its buffer: Read must copy", again)
	}
}
