package store

import (
	"bytes"
	"testing"
)

// spillSuite runs the SpillStore contract against any implementation.
func spillSuite(t *testing.T, mk func(t *testing.T) SpillStore) {
	t.Run("empty partition reads empty", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		got, err := s.Read(3)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("fresh partition has %d bytes", len(got))
		}
		if n, err := s.Size(3); err != nil || n != 0 {
			t.Errorf("Size = %d, %v", n, err)
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
		got, err := s.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte("hello world")) {
			t.Errorf("Read = %q", got)
		}
		if n, _ := s.Size(0); n != 11 {
			t.Errorf("Size = %d", n)
		}
	})

	t.Run("partitions are independent", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		s.Append(1, []byte("one"))
		s.Append(2, []byte("two"))
		got1, _ := s.Read(1)
		got2, _ := s.Read(2)
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
		if got, _ := s.Read(1); len(got) != 0 {
			t.Errorf("partition 1 not empty after truncate: %q", got)
		}
		if got, _ := s.Read(2); string(got) != "two" {
			t.Errorf("truncate leaked to partition 2: %q", got)
		}
		// Append after truncate works.
		s.Append(1, []byte("new"))
		if got, _ := s.Read(1); string(got) != "new" {
			t.Errorf("append after truncate: %q", got)
		}
	})

	t.Run("stats count traffic", func(t *testing.T) {
		s := mk(t)
		defer s.Close()
		s.Append(0, make([]byte, 100))
		s.Append(0, make([]byte, 50))
		s.Read(0)
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
		// Every method must answer "closed" uniformly — including Size
		// and Stats, which historically leaked zero values instead.
		s := mk(t)
		s.Append(0, []byte("x"))
		s.Close()
		if err := s.Append(0, []byte("x")); err == nil {
			t.Error("Append after Close should error")
		}
		if _, err := s.Read(0); err == nil {
			t.Error("Read after Close should error")
		}
		if err := s.Truncate(0); err == nil {
			t.Error("Truncate after Close should error")
		}
		if _, err := s.Size(0); err == nil {
			t.Error("Size after Close should error")
		}
		if _, err := s.Stats(); err == nil {
			t.Error("Stats after Close should error")
		}
	})
}

func TestMemSpill(t *testing.T) {
	spillSuite(t, func(t *testing.T) SpillStore { return NewMemSpill() })
}

func TestMemSpillReadReturnsCopy(t *testing.T) {
	s := NewMemSpill()
	defer s.Close()
	s.Append(0, []byte("abc"))
	got, _ := s.Read(0)
	got[0] = 'X'
	again, _ := s.Read(0)
	if string(again) != "abc" {
		t.Error("Read must return a copy")
	}
}
