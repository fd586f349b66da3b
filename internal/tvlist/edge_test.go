package tvlist

import (
	"testing"

	"repro/internal/core"
)

func TestScratchAcrossArrayBoundaries(t *testing.T) {
	// Save/Restore must be index-exact even when records sit at the
	// very edges of backing arrays.
	l := NewWithArrayLen[int](3)
	for i := 0; i < 10; i++ {
		l.Put(int64(i), i*7)
	}
	l.EnsureScratch(4)
	for _, idx := range []int{0, 2, 3, 5, 6, 8, 9} {
		l.Save(idx, 1)
		l.Restore(1, 0)
		if tt, v := l.Get(0); tt != int64(idx) || v != idx*7 {
			t.Fatalf("save/restore via slot mangled record %d: (%d,%d)", idx, tt, v)
		}
	}
}

// TestScanRangeEmptyAndMisses: a range read over an empty list, a range
// that misses every record, or an inverted range yields nothing.
func TestScanRangeEmptyAndMisses(t *testing.T) {
	l := NewDouble()
	if ts, vs := l.LastPerTime(0, 100); len(ts) != 0 || len(vs) != 0 {
		t.Fatalf("LastPerTime on empty list = %v, %v", ts, vs)
	}
	l.Put(50, 1)
	if ts, vs := l.LastPerTime(60, 100); len(ts) != 0 || len(vs) != 0 {
		t.Fatalf("LastPerTime out of range = %v, %v", ts, vs)
	}
	if ts, vs := l.LastPerTime(100, 0); len(ts) != 0 || len(vs) != 0 {
		t.Fatalf("inverted LastPerTime = %v, %v", ts, vs)
	}
}

func TestCloneEmpty(t *testing.T) {
	l := NewDouble()
	c := l.Clone()
	if c.Len() != 0 || !c.Sorted() {
		t.Fatal("empty clone wrong")
	}
	c.Put(1, 1)
	if l.Len() != 0 {
		t.Fatal("clone shares state with parent")
	}
}

func TestSortEmptyAndSingle(t *testing.T) {
	for n := 0; n <= 1; n++ {
		l := NewDouble()
		for i := 0; i < n; i++ {
			l.Put(int64(i), 0)
		}
		l.Sort(func(s core.Sortable) { core.BackwardSort(s, core.Options{}) })
		if !l.Sorted() {
			t.Fatalf("n=%d: not sorted", n)
		}
	}
}

func TestPutAfterSortAtBoundary(t *testing.T) {
	// Fill exactly one array, sort, then keep appending: the new
	// array allocation path must preserve the records.
	l := NewWithArrayLen[int](4)
	for _, tt := range []int64{4, 2, 3, 1} {
		l.Put(tt, int(tt))
	}
	l.Sort(func(s core.Sortable) { core.BackwardSort(s, core.Options{}) })
	l.Put(0, 0) // unsorted again, lands in a fresh array
	if l.Sorted() {
		t.Fatal("sorted flag wrong")
	}
	l.Sort(func(s core.Sortable) { core.BackwardSort(s, core.Options{}) })
	for i := 0; i < 5; i++ {
		if tt, v := l.Get(i); tt != int64(i) || v != i {
			t.Fatalf("record %d = (%d,%d)", i, tt, v)
		}
	}
}
