package tvlist

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sortalgo"
)

func TestPutGetAcrossArrayBoundaries(t *testing.T) {
	l := NewWithArrayLen[int](4)
	for i := 0; i < 100; i++ {
		l.Put(int64(i*10), i)
	}
	if l.Len() != 100 {
		t.Fatalf("Len = %d", l.Len())
	}
	if l.MemoryArrays() != 25 {
		t.Fatalf("arrays = %d, want 25", l.MemoryArrays())
	}
	for i := 0; i < 100; i++ {
		tt, v := l.Get(i)
		if tt != int64(i*10) || v != i {
			t.Fatalf("Get(%d) = (%d,%d)", i, tt, v)
		}
		if l.Time(i) != tt || l.Value(i) != v {
			t.Fatal("Time/Value disagree with Get")
		}
	}
}

func TestSortedFlagMaintained(t *testing.T) {
	l := NewDouble()
	if !l.Sorted() {
		t.Fatal("empty list should be sorted")
	}
	l.Put(1, 1.0)
	l.Put(2, 2.0)
	l.Put(2, 2.5) // tie keeps order
	if !l.Sorted() {
		t.Fatal("ascending appends should stay sorted")
	}
	l.Put(1, 0.5)
	if l.Sorted() {
		t.Fatal("out-of-order append should clear the flag")
	}
}

func TestMinMaxTime(t *testing.T) {
	l := NewDouble()
	if l.MinTime() != math.MaxInt64 || l.MaxTime() != math.MinInt64 {
		t.Fatal("empty min/max sentinel wrong")
	}
	l.Put(5, 0)
	l.Put(2, 0)
	l.Put(9, 0)
	if l.MinTime() != 2 || l.MaxTime() != 9 {
		t.Fatalf("min/max = %d/%d", l.MinTime(), l.MaxTime())
	}
}

func TestSortWithEveryAlgorithm(t *testing.T) {
	s := dataset.LogNormal(5000, 1, 2, 3)
	for _, name := range sortalgo.AllNames() {
		algo := sortalgo.MustGet(name)
		l := NewWithArrayLen[float64](32)
		for i := range s.Times {
			l.Put(s.Times[i], s.Values[i])
		}
		l.Sort(algo)
		if !l.Sorted() || !core.IsSorted(l) {
			t.Fatalf("%s: TVList not sorted", name)
		}
		// Values must still be glued to their timestamps.
		for i := 0; i < l.Len(); i++ {
			tt, v := l.Get(i)
			if v != dataset.Signal(tt) {
				t.Fatalf("%s: record torn at %d", name, i)
			}
		}
	}
}

func TestSortSkipsWhenSorted(t *testing.T) {
	l := NewDouble()
	for i := 0; i < 100; i++ {
		l.Put(int64(i), 0)
	}
	called := false
	l.Sort(func(core.Sortable) { called = true })
	if called {
		t.Fatal("Sort ran the algorithm on an already-sorted list")
	}
}

func TestSeekTime(t *testing.T) {
	l := NewWithArrayLen[float64](8)
	for i := 0; i < 50; i++ {
		l.Put(int64(i*2), float64(i)) // 0,2,4,...,98
	}
	if got := l.SeekTime(10); got != 5 {
		t.Fatalf("SeekTime(10) = %d, want 5", got)
	}
	if got := l.SeekTime(11); got != 6 {
		t.Fatalf("SeekTime(11) = %d, want 6", got)
	}
	if got := l.SeekTime(-5); got != 0 {
		t.Fatalf("SeekTime(-5) = %d, want 0", got)
	}
	if got := l.SeekTime(1000); got != 50 {
		t.Fatalf("SeekTime(1000) = %d, want 50", got)
	}
}

// TestLastRecordPerTimestamp: LastPerTime(minT, maxT) yields, in time
// order, one record per timestamp in the range — after the flat
// kernel's stable sort, the newest write — on both layouts, including
// runs that straddle array boundaries and ranges that cut a run's
// neighbours.
func TestLastRecordPerTimestamp(t *testing.T) {
	layouts := []func() *TVList[int]{func() *TVList[int] { return NewWithArrayLen[int](3) }, NewContiguous[int]}
	for _, layout := range layouts {
		// Write i carries time (i*7)%10/3 — ties in every run, out of
		// order — so time x's newest write is the largest i mapping to x.
		ties := layout()
		newest := map[int64]int{}
		for i := 0; i < 40; i++ {
			x := int64(i * 7 % 10 / 3)
			ties.Put(x, i)
			newest[x] = i
		}
		ties.EnsureSortedFlat(core.FlatOptions{})
		evens := layout()
		for i := 0; i < 50; i++ {
			evens.Put(int64(i*2), i) // 0,2,4,...,98
		}
		single := layout()
		single.Put(50, 1)
		cases := []struct {
			l          *TVList[int]
			minT, maxT int64
			want       []int64
			value      func(x int64) int
		}{
			{ties, 1, 2, []int64{1, 2}, func(x int64) int { return newest[x] }},
			{ties, math.MinInt64, math.MaxInt64, []int64{0, 1, 2, 3}, func(x int64) int { return newest[x] }},
			{evens, 10, 20, []int64{10, 12, 14, 16, 18, 20}, func(x int64) int { return int(x / 2) }},
			{single, 50, 50, []int64{50}, func(int64) int { return 1 }},
		}
		for _, c := range cases {
			ts, vs := c.l.LastPerTime(c.minT, c.maxT)
			if !slices.Equal(ts, c.want) || len(vs) != len(ts) {
				t.Fatalf("LastPerTime(%d, %d) times %v (%d values), want %v", c.minT, c.maxT, ts, len(vs), c.want)
			}
			for i, x := range ts {
				if vs[i] != c.value(x) {
					t.Fatalf("LastPerTime(%d, %d): t=%d yields %d, want %d", c.minT, c.maxT, x, vs[i], c.value(x))
				}
			}
		}
		if ties.Len() != 40 {
			t.Fatalf("LastPerTime changed the list: Len %d", ties.Len())
		}
	}
}

func TestSeekTimeUnsortedPanics(t *testing.T) {
	l := NewDouble()
	l.Put(5, 0)
	l.Put(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("SeekTime on unsorted list should panic")
		}
	}()
	l.SeekTime(3)
}

func TestToSlicesAndClone(t *testing.T) {
	l := NewWithArrayLen[int](4)
	for i := 0; i < 10; i++ {
		l.Put(int64(10-i), i)
	}
	ts, vs := l.ToSlices()
	if len(ts) != 10 || len(vs) != 10 || ts[0] != 10 || vs[9] != 9 {
		t.Fatal("ToSlices wrong")
	}
	c := l.Clone()
	c.Swap(0, 9)
	if l.Time(0) != 10 {
		t.Fatal("Clone shares storage")
	}
	if c.Sorted() != l.Sorted() || c.MinTime() != l.MinTime() || c.MaxTime() != l.MaxTime() {
		t.Fatal("Clone lost metadata")
	}
}

func TestReset(t *testing.T) {
	l := NewWithArrayLen[float64](4)
	for i := 0; i < 20; i++ {
		l.Put(int64(20-i), 0)
	}
	arrays := l.MemoryArrays()
	l.Reset()
	if l.Len() != 0 || !l.Sorted() {
		t.Fatal("Reset did not clear state")
	}
	if l.MemoryArrays() != arrays {
		t.Fatal("Reset freed backing arrays (should recycle)")
	}
	l.Put(3, 1)
	if tt, v := l.Get(0); tt != 3 || v != 1.0 {
		t.Fatal("Put after Reset broken")
	}
}

func TestInvalidArrayLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWithArrayLen(0) should panic")
		}
	}()
	NewWithArrayLen[int](0)
}

func TestTypedConstructors(t *testing.T) {
	NewDouble().Put(1, 2)
	NewText().Put(1, "x")
}

// TestModelCheckAgainstFlatOracle drives a TVList and a flat-slice
// oracle with the same random operation sequence and compares them;
// arrayLen 0 is the contiguous layout.
func TestModelCheckAgainstFlatOracle(t *testing.T) {
	f := func(seed int64, arrayLenRaw uint8) bool {
		arrayLen := int(arrayLenRaw % 14)
		r := rand.New(rand.NewSource(seed))
		l := newLayout[int64](arrayLen)
		var oT, oV []int64
		n := 200 + r.Intn(200)
		for i := 0; i < n; i++ {
			tt := r.Int63n(500)
			vv := r.Int63()
			l.Put(tt, vv)
			oT = append(oT, tt)
			oV = append(oV, vv)
			switch r.Intn(5) {
			case 0:
				a, b := r.Intn(len(oT)), r.Intn(len(oT))
				l.Swap(a, b)
				oT[a], oT[b] = oT[b], oT[a]
				oV[a], oV[b] = oV[b], oV[a]
			case 1:
				a, b := r.Intn(len(oT)), r.Intn(len(oT))
				l.Move(a, b)
				oT[b], oV[b] = oT[a], oV[a]
			case 2:
				l.EnsureScratch(3)
				a, b := r.Intn(len(oT)), r.Intn(len(oT))
				l.Save(a, 1)
				l.Restore(1, b)
				oT[b], oV[b] = oT[a], oV[a]
			}
		}
		for i := range oT {
			tt, vv := l.Get(i)
			if tt != oT[i] || vv != oV[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSortedFlagResumesAfterSort checks the IoTDB lifecycle: sort,
// keep appending in order (stays sorted), then append late data
// (unsorted again), re-sort with Backward-Sort.
func TestSortedFlagResumesAfterSort(t *testing.T) {
	l := NewDouble()
	for _, tt := range []int64{5, 3, 8, 1} {
		l.Put(tt, float64(tt))
	}
	l.Sort(func(s core.Sortable) { core.BackwardSort(s, core.Options{}) })
	if !l.Sorted() {
		t.Fatal("not sorted after Sort")
	}
	l.Put(9, 9)
	if !l.Sorted() {
		t.Fatal("in-order append should preserve sortedness")
	}
	l.Put(2, 2)
	if l.Sorted() {
		t.Fatal("late append should clear sortedness")
	}
	l.Sort(func(s core.Sortable) { core.BackwardSort(s, core.Options{}) })
	ts, _ := l.ToSlices()
	want := []int64{1, 2, 3, 5, 8, 9}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("final order %v, want %v", ts, want)
		}
	}
}

func TestSortLargeWithSmallArrays(t *testing.T) {
	// Array length 1 exercises every index-translation path.
	s := dataset.AbsNormal(3000, 1, 4, 8)
	for _, arrayLen := range []int{1, 2, 3, 32, 4096} {
		l := NewWithArrayLen[float64](arrayLen)
		for i := range s.Times {
			l.Put(s.Times[i], s.Values[i])
		}
		l.Sort(func(x core.Sortable) { core.BackwardSort(x, core.Options{}) })
		if !core.IsSorted(l) {
			t.Fatalf("arrayLen=%d: not sorted", arrayLen)
		}
		prev := int64(-1)
		sortedTimes := make([]int64, 0, l.Len())
		for i := 0; i < l.Len(); i++ {
			sortedTimes = append(sortedTimes, l.Time(i))
		}
		orig := append([]int64(nil), s.Times...)
		sort.Slice(orig, func(a, b int) bool { return orig[a] < orig[b] })
		for i := range orig {
			if orig[i] != sortedTimes[i] {
				t.Fatalf("arrayLen=%d: lost records", arrayLen)
			}
			prev = orig[i]
		}
		_ = prev
	}
}

func TestEnsureSortedReportsWork(t *testing.T) {
	algo := sortalgo.MustGet("backward")
	l := NewDouble()
	l.Put(3, 30)
	l.Put(1, 10)
	if !l.EnsureSorted(algo) {
		t.Fatal("unsorted list: EnsureSorted should report a sort")
	}
	if !l.Sorted() || l.Time(0) != 1 || l.Time(1) != 3 {
		t.Fatal("EnsureSorted did not sort")
	}
	if l.EnsureSorted(algo) {
		t.Fatal("already-sorted list: EnsureSorted should be a no-op")
	}
	// In-order appends keep the flag, so the next call is still free.
	l.Put(7, 70)
	if l.EnsureSorted(algo) {
		t.Fatal("in-order append should not force a re-sort")
	}
	// An out-of-order append invalidates it again.
	l.Put(5, 50)
	if !l.EnsureSorted(algo) {
		t.Fatal("out-of-order append should force a re-sort")
	}
}
