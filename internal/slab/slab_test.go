package slab

import "testing"

func TestTakeCarvesResetRecyclesTrimBounds(t *testing.T) {
	s := New[int](4)
	a, b := s.Take(3), s.Take(2) // b does not fit behind a: next chunk
	if len(a) != 3 || cap(a) != 3 || len(b) != 2 || cap(b) != 2 {
		t.Fatalf("runs %d/%d and %d/%d, want len == cap == 3 and 2", len(a), cap(a), len(b), cap(b))
	}
	if s.Cap() != 8 {
		t.Fatalf("Cap = %d after two chunks, want 8", s.Cap())
	}
	a[0], b[1] = 7, 9
	if big := s.Take(5); len(big) != 5 || s.Cap() != 8 {
		t.Fatalf("oversized run: len %d, Cap %d; want 5 and an untouched slab", len(big), s.Cap())
	}

	s.Reset()
	if a[0] != 0 || b[1] != 0 {
		t.Errorf("Reset left %d, %d in recycled chunks, want zeroes", a[0], b[1])
	}
	if again := s.Take(3); &again[0] != &a[0] {
		t.Error("first Take after Reset did not reuse the first chunk")
	}

	s.Take(2) // second chunk in use again
	c := s.Take(1)
	c[0] = 5
	s.Trim(1)
	if s.Cap() != 4 {
		t.Errorf("Cap = %d after Trim(1), want 4", s.Cap())
	}
	if c[0] != 5 {
		t.Error("Trim disturbed a run taken from the dropped chunk")
	}
	if d := s.Take(1); &d[0] == &c[0] || s.Cap() != 8 {
		t.Errorf("Take after Trim: reused the dropped chunk or Cap %d != 8", s.Cap())
	}
}

func TestZeroSlabIsPlainAllocation(t *testing.T) {
	var s Slab[int]
	a, b := s.Take(2), s.Take(2)
	a[1], b[0] = 1, 2
	s.Reset()
	if a[1] != 1 || b[0] != 2 || s.Cap() != 0 {
		t.Errorf("zero slab retained or recycled its runs: %v %v, Cap %d", a, b, s.Cap())
	}
}

// TestOnceSlabForgetsCarvedChunks: a NewOnce slab carves chunk by chunk
// like a recyclable one but retains only the chunk it is carving, so a
// run pins its own chunk and nothing else.
func TestOnceSlabForgetsCarvedChunks(t *testing.T) {
	s := NewOnce[int](4)
	a := s.Take(3)
	a[2] = 7
	for i := 0; i < 10; i++ {
		if r := s.Take(3); len(r) != 3 || cap(r) != 3 || r[0] != 0 {
			t.Fatalf("run %d: %v (cap %d)", i, r, cap(r))
		}
		if s.Cap() != 4 {
			t.Fatalf("after %d more runs the slab retains %d elements, want one chunk of 4", i+1, s.Cap())
		}
	}
	if a[2] != 7 {
		t.Error("a later Take disturbed an earlier run")
	}
	b, c := s.Take(1), s.Take(1) // the current chunk has room for both
	if &b[0] == &c[0] || s.Cap() != 4 {
		t.Errorf("runs overlap or Cap %d != 4", s.Cap())
	}
}

// TestResetWipesWhatWasCarved: Reset zeroes every run handed out since
// the last one, in full chunks and in the part-carved current chunk, and
// leaves the never-carved rest alone (it is still zero).
func TestResetWipesWhatWasCarved(t *testing.T) {
	s := New[int](4)
	runs := [][]int{s.Take(4), s.Take(2), s.Take(1)}
	for _, r := range runs {
		for i := range r {
			r[i] = 9
		}
	}
	s.Reset()
	for i, r := range runs {
		for _, v := range r {
			if v != 0 {
				t.Fatalf("run %d not wiped: %v", i, r)
			}
		}
	}
	if again := s.Take(4); &again[0] != &runs[0][0] {
		t.Error("first Take after Reset did not reuse the first chunk")
	}
}

// TestResetToFillsWhatWasCarved: ResetTo leaves its value in every run
// handed out since the last reset, full chunks and the part-carved
// current one alike, rewinds to the first chunk, and leaves the
// never-carved rest zero.
func TestResetToFillsWhatWasCarved(t *testing.T) {
	s := New[int](4)
	runs := [][]int{s.Take(4), s.Take(3)}
	s.ResetTo(-1)
	for i, r := range runs {
		for _, v := range r {
			if v != -1 {
				t.Fatalf("run %d not filled: %v", i, r)
			}
		}
	}
	if rest := s.chunks[1][3]; rest != 0 {
		t.Errorf("never-carved element holds %d, want 0", rest)
	}
	if again := s.Take(1); &again[0] != &runs[0][0] {
		t.Error("first Take after ResetTo did not reuse the first chunk")
	}
}
