package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// makePairs builds a Pairs over the given times with the original
// index as the value, so tests can verify records never tear apart.
func makePairs(times []int64) *Pairs[int] {
	ts := make([]int64, len(times))
	copy(ts, times)
	vals := make([]int, len(times))
	for i := range vals {
		vals[i] = i
	}
	return NewPairs(ts, vals)
}

// checkSortedPermutation verifies p is sorted by time and is a
// permutation of the original (time, index) records.
func checkSortedPermutation(t *testing.T, p *Pairs[int], orig []int64) {
	t.Helper()
	if !IsSorted(p) {
		t.Fatal("output is not sorted")
	}
	if len(p.Times) != len(orig) {
		t.Fatalf("length changed: %d -> %d", len(orig), len(p.Times))
	}
	seen := make([]bool, len(orig))
	for i := range p.Times {
		idx := p.Values[i]
		if idx < 0 || idx >= len(orig) {
			t.Fatalf("value %d out of range", idx)
		}
		if seen[idx] {
			t.Fatalf("record %d duplicated", idx)
		}
		seen[idx] = true
		if p.Times[i] != orig[idx] {
			t.Fatalf("record %d tore apart: time %d, original %d", idx, p.Times[i], orig[idx])
		}
	}
}

// delayedTimes generates a delay-only permutation: generation times
// 0..n-1 each delayed by an exponential-ish amount, observed in
// arrival order.
func delayedTimes(n int, meanDelay float64, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	type p struct {
		gen     int64
		arrival float64
	}
	ps := make([]p, n)
	for i := range ps {
		ps[i] = p{int64(i), float64(i) + r.ExpFloat64()*meanDelay}
	}
	sort.SliceStable(ps, func(a, b int) bool { return ps[a].arrival < ps[b].arrival })
	out := make([]int64, n)
	for i := range ps {
		out[i] = ps[i].gen
	}
	return out
}

func TestBackwardSortDelayOnlyInputs(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 16, 100, 1000, 10000} {
		for _, mean := range []float64{0, 0.5, 3, 20, 200} {
			orig := delayedTimes(n, mean, int64(n)*31+int64(mean*7)+1)
			p := makePairs(orig)
			tr := BackwardSort(p, Options{})
			checkSortedPermutation(t, p, orig)
			if n >= 2 && (tr.BlockSize < 1 || tr.BlockSize > n) {
				t.Fatalf("n=%d mean=%g: bad block size %d", n, mean, tr.BlockSize)
			}
		}
	}
}

func TestBackwardSortArbitraryInputsQuick(t *testing.T) {
	// Even though the algorithm is designed for delay-only data, it
	// must sort *any* input correctly.
	f := func(times []int64) bool {
		orig := make([]int64, len(times))
		copy(orig, times)
		p := makePairs(times)
		BackwardSort(p, Options{})
		if !IsSorted(p) {
			return false
		}
		got := make([]int64, len(p.Times))
		copy(got, p.Times)
		sort.Slice(orig, func(i, j int) bool { return orig[i] < orig[j] })
		for i := range got {
			if got[i] != orig[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBackwardSortFixedBlockSizes(t *testing.T) {
	orig := delayedTimes(5000, 10, 99)
	for _, L := range []int{1, 2, 3, 4, 5, 7, 16, 33, 100, 1024, 5000, 9999} {
		p := makePairs(orig)
		tr := BackwardSort(p, Options{FixedBlockSize: L})
		checkSortedPermutation(t, p, orig)
		wantL := L
		if wantL > 5000 {
			wantL = 5000
		}
		if tr.BlockSize != wantL {
			t.Fatalf("L=%d: trace block size %d", L, tr.BlockSize)
		}
	}
}

func TestBackwardSortDegenerateEndpoints(t *testing.T) {
	// Proposition 5 / Figure 6: L=1 behaves like insertion sort
	// (every block is one record, everything happens in merges); L=N
	// is exactly one Quicksort call with no merges.
	orig := delayedTimes(2000, 5, 7)

	p1 := makePairs(orig)
	tr1 := BackwardSort(p1, Options{FixedBlockSize: 1})
	checkSortedPermutation(t, p1, orig)
	if tr1.Blocks != 2000 {
		t.Fatalf("L=1: blocks = %d, want 2000", tr1.Blocks)
	}

	pn := makePairs(orig)
	trn := BackwardSort(pn, Options{FixedBlockSize: 2000})
	checkSortedPermutation(t, pn, orig)
	if trn.Blocks != 1 || trn.Merges != 0 {
		t.Fatalf("L=N: blocks=%d merges=%d, want 1 and 0", trn.Blocks, trn.Merges)
	}
}

func TestBackwardSortAlreadySorted(t *testing.T) {
	n := 10000
	times := make([]int64, n)
	for i := range times {
		times[i] = int64(i)
	}
	p := makePairs(times)
	c := NewCounter(p)
	tr := BackwardSort(c, Options{})
	if !IsSorted(p) {
		t.Fatal("sorted input came out unsorted")
	}
	if tr.SearchIterations != 1 {
		t.Fatalf("sorted input should settle block size in 1 iteration, got %d", tr.SearchIterations)
	}
	if tr.BlockSize != DefaultInitialBlockSize {
		t.Fatalf("sorted input should keep L0, got %d", tr.BlockSize)
	}
	if tr.Merges != 0 {
		t.Fatalf("sorted input needed %d merges", tr.Merges)
	}
	if c.Saves+c.Moves+c.Restores != 0 {
		t.Fatalf("sorted input moved records: %+v", c)
	}
}

func TestBackwardSortReverseSorted(t *testing.T) {
	// Reverse order is the pathological anti-delay-only input; the
	// search should escalate L to n and the sort degenerate to
	// Quicksort (Proposition 6's high-disorder branch).
	n := 4096
	times := make([]int64, n)
	for i := range times {
		times[i] = int64(n - i)
	}
	p := makePairs(times)
	tr := BackwardSort(p, Options{})
	if !IsSorted(p) {
		t.Fatal("reverse input came out unsorted")
	}
	if tr.BlockSize != n {
		t.Fatalf("reverse input should escalate to L=n, got L=%d", tr.BlockSize)
	}
}

func TestBackwardSortDuplicateTimestamps(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	times := make([]int64, 5000)
	for i := range times {
		times[i] = int64(r.Intn(50)) // heavy duplication
	}
	orig := make([]int64, len(times))
	copy(orig, times)
	p := makePairs(times)
	BackwardSort(p, Options{})
	checkSortedPermutation(t, p, orig)
}

func TestBackwardSortBlockSizeTracksDisorder(t *testing.T) {
	// More disorder (larger mean delay) must never shrink the chosen
	// block size on average; check endpoints.
	small := makePairs(delayedTimes(100000, 1, 5))
	trSmall := BackwardSort(small, Options{})
	big := makePairs(delayedTimes(100000, 500, 5))
	trBig := BackwardSort(big, Options{})
	if trBig.BlockSize <= trSmall.BlockSize {
		t.Fatalf("block size did not grow with disorder: %d (mean 1) vs %d (mean 500)",
			trSmall.BlockSize, trBig.BlockSize)
	}
}

func TestBackwardSortOverlapBound(t *testing.T) {
	// Proposition 4: mean merge overlap is bounded by
	// E(Δτ | Δτ ≥ 0). With exponential delays of mean m,
	// E(Δτ | Δτ ≥ 0) = m. Allow generous slack: the bound is on the
	// expectation and our estimate divides by boundaries merged.
	mean := 8.0
	orig := delayedTimes(200000, mean, 17)
	p := makePairs(orig)
	tr := BackwardSort(p, Options{})
	if tr.Merges == 0 {
		t.Fatal("expected merges on disordered input")
	}
	avg := float64(tr.OverlapTotal) / float64(tr.Merges)
	if avg > 4*mean {
		t.Fatalf("average overlap %g far exceeds the E(Δτ|Δτ≥0)=%g bound regime", avg, mean)
	}
}

func TestProposition3SearchIterationBound(t *testing.T) {
	// Proposition 3: the set-block-size loop runs at most
	// log2(n/L0)+1 times, for any input.
	for _, n := range []int{16, 1000, 100000} {
		for _, mean := range []float64{0, 2, 50, 1e6} {
			orig := delayedTimes(n, mean, int64(n)+int64(mean))
			p := makePairs(orig)
			tr := BackwardSort(p, Options{})
			bound := 1
			for l := DefaultInitialBlockSize; l <= n; l *= 2 {
				bound++
			}
			if tr.SearchIterations > bound {
				t.Fatalf("n=%d mean=%g: %d iterations exceeds log bound %d", n, mean, tr.SearchIterations, bound)
			}
		}
	}
}

func TestSetBlockSizeThresholdMonotonic(t *testing.T) {
	// A stricter (smaller) Θ can only grow the chosen block size.
	orig := delayedTimes(100000, 10, 3)
	var prev int
	for i, theta := range []float64{0.5, 0.04, 0.001} {
		p := makePairs(orig)
		tr := BackwardSort(p, Options{Threshold: theta})
		if i > 0 && tr.BlockSize < prev {
			t.Fatalf("Θ=%g produced smaller L (%d) than looser threshold (%d)", theta, tr.BlockSize, prev)
		}
		prev = tr.BlockSize
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.InitialBlockSize != DefaultInitialBlockSize || o.Threshold != DefaultThreshold {
		t.Fatalf("defaults not applied: %+v", o)
	}
	// Explicit values survive.
	o2 := Options{InitialBlockSize: 8, Threshold: 0.1}.withDefaults()
	if o2.InitialBlockSize != 8 || o2.Threshold != 0.1 {
		t.Fatalf("explicit options overridden: %+v", o2)
	}
}

func TestEmpiricalIIRMatchesDownsampledDefinition(t *testing.T) {
	// The paper's Figure 3 sequence (Example 5).
	times := []int64{4, 3, 9, 8, 5, 6, 11, 1, 12, 7, 15, 2, 16, 17, 18}
	at := func(i int) int64 { return times[i] }
	n := len(times)
	// Stride-3 samples 4,8,11,7,16 have exactly one inverted pair.
	if got := empiricalIIR(n, at, 3); got != 0.25 {
		t.Fatalf("empiricalIIR(3) = %g, want 0.25", got)
	}
	if got := empiricalIIR(n, at, 5); got != 0 {
		t.Fatalf("empiricalIIR(5) = %g, want 0", got)
	}
	if got := empiricalIIR(n, at, 100); got != 0 {
		t.Fatalf("empiricalIIR beyond n = %g, want 0", got)
	}
}
