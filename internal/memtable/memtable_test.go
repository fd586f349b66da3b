package memtable

import (
	"testing"

	"repro/internal/core"
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

func TestSnapshotChunkIsIndependent(t *testing.T) {
	m := New(4)
	m.Write("s", 3, 30)
	m.Write("s", 1, 10)
	if m.SnapshotChunk("missing") != nil {
		t.Fatal("missing sensor should snapshot to nil")
	}
	snap := m.SnapshotChunk("s")
	if snap.Len() != 2 || snap.Sorted() {
		t.Fatalf("snapshot shape wrong: len=%d sorted=%v", snap.Len(), snap.Sorted())
	}
	// Writes to the live chunk must not reach the snapshot...
	m.Write("s", 2, 20)
	if snap.Len() != 2 {
		t.Fatal("snapshot saw a later write")
	}
	// ...and sorting the snapshot must not touch the live chunk.
	snap.Sort(func(s core.Sortable) {
		// trivial exchange sort via the Sortable interface
		n := s.Len()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if s.Time(j) < s.Time(i) {
					s.Swap(i, j)
				}
			}
		}
	})
	if !snap.Sorted() || snap.Time(0) != 1 {
		t.Fatal("snapshot sort failed")
	}
	live := m.Chunk("s")
	if live.Sorted() {
		t.Fatal("sorting the snapshot marked the live chunk sorted")
	}
	if live.Time(0) != 3 {
		t.Fatal("sorting the snapshot reordered the live chunk")
	}
	// Sorted-flag preservation: a sorted live chunk snapshots as sorted.
	m2 := New(0)
	m2.Write("t", 1, 1)
	m2.Write("t", 2, 2)
	if !m2.SnapshotChunk("t").Sorted() {
		t.Fatal("sorted flag not preserved by snapshot")
	}
}
