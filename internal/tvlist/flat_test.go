package tvlist

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sortalgo"
)

func fillRandom(l *TVList[float64], n int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		t := int64(r.Intn(n * 2))
		l.Put(t, float64(t)*0.5)
	}
}

// newLayout returns an empty list in the blocked layout with the given
// array length, or in the contiguous layout for arrayLen 0.
func newLayout[V any](arrayLen int) *TVList[V] {
	if arrayLen == 0 {
		return NewContiguous[V]()
	}
	return NewWithArrayLen[V](arrayLen)
}

// TestEnsureSortedFlatMatchesInterface sorts identical lists through
// the flat kernel and the interface path and requires identical
// contents, across sizes that exercise empty, single-array, exact
// multiple-of-arrayLen, and ragged-last-array layouts, and across
// contiguous lists (arrayLen 0) that grew zero to several times.
func TestEnsureSortedFlatMatchesInterface(t *testing.T) {
	backward, ok := sortalgo.Get("backward")
	if !ok {
		t.Fatal("backward algorithm not registered")
	}
	for _, arrayLen := range []int{0, 1, 7, 32} {
		for _, n := range []int{0, 1, 2, 31, 32, 33, 64, 1000, 4096, 5000} {
			a := newLayout[float64](arrayLen)
			b := newLayout[float64](arrayLen)
			fillRandom(a, n, int64(n+arrayLen))
			fillRandom(b, n, int64(n+arrayLen))
			fa := a.EnsureSortedFlat(core.FlatOptions{})
			fb := b.EnsureSorted(backward)
			if fa != fb {
				t.Fatalf("arrayLen=%d n=%d: flat path sorted=%v, interface sorted=%v", arrayLen, n, fa, fb)
			}
			if !a.Sorted() {
				t.Fatalf("arrayLen=%d n=%d: flat path did not mark list sorted", arrayLen, n)
			}
			for i := 0; i < n; i++ {
				at, av := a.Get(i)
				bt, bv := b.Get(i)
				if at != bt || av != bv {
					t.Fatalf("arrayLen=%d n=%d: element %d differs: flat (%d,%v), interface (%d,%v)",
						arrayLen, n, i, at, av, bt, bv)
				}
			}
		}
	}
}

func TestEnsureSortedFlatAlreadySorted(t *testing.T) {
	l := New[float64]()
	for i := 0; i < 100; i++ {
		l.Put(int64(i), float64(i))
	}
	if !l.Sorted() {
		t.Fatal("in-order puts should leave the list sorted")
	}
	if l.EnsureSortedFlat(core.FlatOptions{}) {
		t.Fatal("EnsureSortedFlat re-sorted an already-sorted list")
	}
}

// TestEnsureSortedFlatText makes sure the flat sort, coalescing
// included, keeps pointerful values paired with their times.
func TestEnsureSortedFlatText(t *testing.T) {
	l := NewText()
	want := make(map[int64]string)
	for i := 2000; i > 0; i-- {
		s := string(rune('a'+i%26)) + "-value"
		l.Put(int64(i), s)
		want[int64(i)] = s
	}
	l.EnsureSortedFlat(core.FlatOptions{})
	for i := 0; i < l.Len(); i++ {
		tm, v := l.Get(i)
		if want[tm] != v {
			t.Fatalf("element %d: time %d carries %q, want %q", i, tm, v, want[tm])
		}
		if i > 0 && l.Time(i-1) > tm {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

// TestResetClearsValueRefs pins satellite 1: Reset keeps the backing
// arrays for reuse, so for reference-holding value types it must clear
// them — otherwise a recycled Text chunk pins every string it ever
// held.
func TestResetClearsValueRefs(t *testing.T) {
	l := NewText()
	for i := 0; i < 100; i++ {
		l.Put(int64(100-i), "retained")
	}
	l.EnsureScratch(64)
	l.Save(0, 0)
	l.Reset()
	if l.Len() != 0 {
		t.Fatalf("Reset left Len %d", l.Len())
	}
	for ai, arr := range l.values {
		for i, v := range arr[:cap(arr)] {
			if v != "" {
				t.Fatalf("Reset retained value reference in array %d slot %d: %q", ai, i, v)
			}
		}
	}
	for i, v := range l.scratchV[:cap(l.scratchV)] {
		if v != "" {
			t.Fatalf("Reset retained scratch value reference at %d: %q", i, v)
		}
	}
}

// TestResetKeepsPrimitiveArrays checks the other half of the contract:
// primitive lists skip the clearing memset but still recycle arrays.
func TestResetKeepsPrimitiveArrays(t *testing.T) {
	l := NewDouble()
	for i := 0; i < 100; i++ {
		l.Put(int64(i), 1.0)
	}
	arrays := l.MemoryArrays()
	l.Reset()
	if l.MemoryArrays() != arrays {
		t.Fatalf("Reset dropped recycled arrays: %d, want %d", l.MemoryArrays(), arrays)
	}
	for i := 0; i < 100; i++ {
		l.Put(int64(i), 2.0)
	}
	for i := 0; i < 100; i++ {
		if _, v := l.Get(i); v != 2.0 {
			t.Fatalf("recycled array returned stale value at %d: %v", i, v)
		}
	}
}

// TestEnsureScratchGeometricTVList pins satellite 2 on the TVList
// copy of the scratch-growth logic.
func TestEnsureScratchGeometricTVList(t *testing.T) {
	const steps = 4096
	allocs := testing.AllocsPerRun(3, func() {
		l := New[float64]()
		for n := 1; n <= steps; n++ {
			l.EnsureScratch(n)
		}
	})
	if allocs > 40 {
		t.Fatalf("EnsureScratch allocated %v times for %d monotone requests; growth is not geometric", allocs, steps)
	}
}

// TestEnsureSortedFlatSteadyStateAllocs: a blocked list is coalesced
// by its first flat sort and stays contiguous, so once that sort and
// the scratch pool are warm, reloading and sorting it allocates
// nothing.
func TestEnsureSortedFlatSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is measured without -race")
	}
	const n = 8192
	s := dataset.AbsNormal(n, 1, 2, 3)
	l := New[float64]()
	load := func() {
		l.Reset()
		for i := 0; i < n; i++ {
			l.Put(s.Times[i], s.Values[i])
		}
	}
	load()
	l.EnsureSortedFlat(core.FlatOptions{}) // coalesce, and warm the scratch pool
	allocs := testing.AllocsPerRun(10, func() {
		load()
		l.EnsureSortedFlat(core.FlatOptions{})
	})
	if allocs >= 1 {
		t.Fatalf("EnsureSortedFlat steady state allocates %v times per run; want 0", allocs)
	}
}

// TestContiguousFlatSortAllocatesNothing pins the serving engine's
// sort: Put into a contiguous list that has reached its size, then an
// in-place flat sort. With the scratch pool warm, neither allocates.
func TestContiguousFlatSortAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is measured without -race")
	}
	const n = 8192
	s := dataset.AbsNormal(n, 1, 2, 3)
	l := NewContiguous[float64]()
	load := func() {
		l.Reset()
		for i := 0; i < n; i++ {
			l.Put(s.Times[i], s.Values[i])
		}
	}
	load()
	if l.MemoryArrays() != 1 {
		t.Fatalf("contiguous list holds %d arrays, want 1", l.MemoryArrays())
	}
	l.EnsureSortedFlat(core.FlatOptions{}) // warm the scratch pool
	allocs := testing.AllocsPerRun(10, func() {
		load()
		if !l.EnsureSortedFlat(core.FlatOptions{}) {
			t.Fatal("AbsNormal load left the list sorted; nothing was measured")
		}
	})
	if allocs >= 1 {
		t.Fatalf("contiguous Put + EnsureSortedFlat allocates %v times per run; want 0", allocs)
	}
}

func sortBenchList(n int) (*TVList[float64], *dataset.Series) {
	s := dataset.AbsNormal(n, 1, 2, 1)
	return New[float64](), s
}

func loadList(l *TVList[float64], s *dataset.Series) {
	l.Reset()
	for i := range s.Times {
		l.Put(s.Times[i], s.Values[i])
	}
}

func BenchmarkSortTVListInterface(b *testing.B) {
	backward := sortalgo.MustGet("backward")
	l, s := sortBenchList(1 << 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		loadList(l, s)
		b.StartTimer()
		l.EnsureSorted(backward)
	}
}

func BenchmarkSortTVListFlat(b *testing.B) {
	l, s := sortBenchList(1 << 17)
	loadList(l, s)
	l.EnsureSortedFlat(core.FlatOptions{}) // warm pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		loadList(l, s)
		b.StartTimer()
		l.EnsureSortedFlat(core.FlatOptions{})
	}
}

// sortCheck guards the oracle property at the TVList level once more,
// this time with the kernel threading through the blocked layout.
func TestEnsureSortedFlatOracle(t *testing.T) {
	const n = 3000
	l := New[float64]()
	r := rand.New(rand.NewSource(99))
	orig := make([]int64, n)
	for i := range orig {
		orig[i] = int64(r.Intn(500))
		l.Put(orig[i], float64(orig[i]))
	}
	l.EnsureSortedFlat(core.FlatOptions{FixedBlockSize: 13})
	sort.Slice(orig, func(i, j int) bool { return orig[i] < orig[j] })
	for i := 0; i < n; i++ {
		tm, v := l.Get(i)
		if tm != orig[i] {
			t.Fatalf("time[%d] = %d, want %d", i, tm, orig[i])
		}
		if v != float64(tm) {
			t.Fatalf("value detached from time at %d", i)
		}
	}
}
