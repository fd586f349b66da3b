package memtable

import (
	"testing"

	"repro/internal/tvlist"
)

func TestWriteAndChunks(t *testing.T) {
	m := New(0)
	if m.State() != Working || !m.Empty() {
		t.Fatal("fresh memtable should be empty and working")
	}
	m.Write("b", 2, 20)
	m.Write("a", 1, 10)
	m.Write("a", 3, 30)
	if m.Points() != 3 {
		t.Fatalf("Points = %d", m.Points())
	}
	if got := m.Sensors(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Sensors = %v", got)
	}
	a := m.Chunk("a")
	if a.Len() != 2 {
		t.Fatalf("chunk a Len = %d", a.Len())
	}
	if m.Chunk("missing") != nil {
		t.Fatal("missing sensor should be nil")
	}
}

// TestArrayLenPropagates: a positive array length gives every chunk
// List<Array> of that length; 0 gives one contiguous array.
func TestArrayLenPropagates(t *testing.T) {
	for _, tc := range []struct{ arrayLen, writes, arrays int }{
		{4, 9, 3},
		{tvlist.DefaultArrayLen, 100, 4},
		{0, 100, 1},
	} {
		m := New(tc.arrayLen)
		for i := 0; i < tc.writes; i++ {
			m.Write("s", int64(i), 0)
		}
		if got := m.Chunk("s").MemoryArrays(); got != tc.arrays {
			t.Fatalf("arrayLen %d, %d writes: %d arrays, want %d", tc.arrayLen, tc.writes, got, tc.arrays)
		}
	}
}

func TestStateTransition(t *testing.T) {
	m := New(0)
	m.Write("s", 1, 1)
	m.MarkFlushing()
	if m.State() != Flushing {
		t.Fatal("MarkFlushing did not transition")
	}
	if Working.String() != "working" || Flushing.String() != "flushing" || State(9).String() != "unknown" {
		t.Fatal("State.String wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("write to flushing memtable should panic")
		}
	}()
	m.Write("s", 2, 2)
}
