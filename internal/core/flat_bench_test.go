package core

import (
	"testing"

	"repro/internal/dataset"
)

// benchSeries is the workload every sort benchmark shares: AbsNormal
// delays (the paper's primary synthetic dataset) at a memtable-flush
// scale. Each iteration re-copies the arrival-order data into
// preallocated buffers so steady-state allocations are attributable to
// the sort itself, not the harness.
const benchN = 1 << 17 // 131072 points, a realistic flush size

func benchData() ([]int64, []float64) {
	s := dataset.AbsNormal(benchN, 1, 2, 1)
	return s.Times, s.Values
}

func BenchmarkSortInterfacePairs(b *testing.B) {
	srcT, srcV := benchData()
	p := NewPairs(make([]int64, benchN), make([]float64, benchN))
	p.EnsureScratch(benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(p.Times, srcT)
		copy(p.Values, srcV)
		b.StartTimer()
		BackwardSort(p, Options{})
	}
}

func BenchmarkSortFlat(b *testing.B) {
	srcT, srcV := benchData()
	t := make([]int64, benchN)
	v := make([]float64, benchN)
	opts := FlatOptions{}
	// Warm the scratch pool so the first iteration's grow doesn't count.
	copy(t, srcT)
	copy(v, srcV)
	SortFlat(t, v, opts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(t, srcT)
		copy(v, srcV)
		b.StartTimer()
		SortFlat(t, v, opts)
	}
}

// TestSortFlatSteadyStateAllocs pins the kernel's zero-allocation
// contract: once the pooled scratch is warm, sorting must not
// allocate.
func TestSortFlatSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the contract is measured without -race")
	}
	const n = 1 << 14
	s := dataset.AbsNormal(n, 1, 2, 7)
	ts := make([]int64, n)
	vs := make([]float64, n)
	copy(ts, s.Times)
	copy(vs, s.Values)
	SortFlat(ts, vs, FlatOptions{}) // warm the scratch pool
	allocs := testing.AllocsPerRun(10, func() {
		copy(ts, s.Times)
		copy(vs, s.Values)
		SortFlat(ts, vs, FlatOptions{})
	})
	// Tolerate <1: a GC between runs can flush the sync.Pool and force
	// one scratch reallocation, which is not a leak in the kernel.
	if allocs >= 1 {
		t.Fatalf("SortFlat steady state allocates %v times per run; want 0", allocs)
	}
}
