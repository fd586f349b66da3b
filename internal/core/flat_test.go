package core

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// oracleSort returns the times stably sorted and, per timestamp, the
// sorted multiset of original indices carrying it — the ground truth
// any correct (not necessarily stable) sort must reproduce.
func oracleSort(times []int64) []int64 {
	out := append([]int64(nil), times...)
	sort.SliceStable(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkAgainstOracle verifies sorted (times, values-as-original-index)
// output: timestamps match the stable-sorted oracle exactly, and every
// run of equal timestamps carries exactly the original indices that
// had that timestamp (records never tear apart or duplicate).
func checkAgainstOracle(t *testing.T, label string, orig, gotT []int64, gotV []int) {
	t.Helper()
	want := oracleSort(orig)
	if len(gotT) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(gotT), len(want))
	}
	for i := range want {
		if gotT[i] != want[i] {
			t.Fatalf("%s: time[%d] = %d, want %d", label, i, gotT[i], want[i])
		}
	}
	seen := make([]bool, len(orig))
	for i, idx := range gotV {
		if idx < 0 || idx >= len(orig) || seen[idx] {
			t.Fatalf("%s: value at %d is not a permutation (index %d)", label, i, idx)
		}
		seen[idx] = true
		if orig[idx] != gotT[i] {
			t.Fatalf("%s: record %d tore apart: carries time %d, original %d", label, idx, gotT[i], orig[idx])
		}
	}
}

// checkStable verifies the flat kernel's tie order: within every run of
// equal timestamps the original indices increase, so together with
// checkAgainstOracle the output is exactly sort.SliceStable's.
func checkStable(t *testing.T, label string, gotT []int64, gotV []int) {
	t.Helper()
	for i := 1; i < len(gotT); i++ {
		if gotT[i] == gotT[i-1] && gotV[i] < gotV[i-1] {
			t.Fatalf("%s: unstable at %d: time %d carries index %d after %d", label, i, gotT[i], gotV[i], gotV[i-1])
		}
	}
}

// runBothPaths sorts orig through the interface path and the flat path
// with identical options, checks both against the oracle and the flat
// path for stability, and asserts their Traces agree — the two paths
// set block sizes and merge backward alike, so every trace counter
// must match.
func runBothPaths(t *testing.T, label string, orig []int64, fixedL int) {
	t.Helper()

	p := makePairs(orig)
	trIface := BackwardSort(p, Options{FixedBlockSize: fixedL})
	checkAgainstOracle(t, label+"/interface", orig, p.Times, p.Values)

	ft := append([]int64(nil), orig...)
	fv := make([]int, len(orig))
	for i := range fv {
		fv[i] = i
	}
	trFlat := SortFlat(ft, fv, FlatOptions{FixedBlockSize: fixedL})
	checkAgainstOracle(t, label+"/flat", orig, ft, fv)
	checkStable(t, label+"/flat", ft, fv)

	if trIface != trFlat {
		t.Fatalf("%s: trace mismatch: interface %+v, flat %+v", label, trIface, trFlat)
	}
}

// adversarialInputs are the workloads that violate the delay-only
// assumption in every way the merge logic could care about.
func adversarialInputs() map[string][]int64 {
	r := rand.New(rand.NewSource(42))
	rnd := make([]int64, 3000)
	for i := range rnd {
		rnd[i] = int64(r.Intn(100)) - 50
	}
	saw := make([]int64, 2048)
	for i := range saw {
		saw[i] = int64(i % 17)
	}
	rev := make([]int64, 1500)
	for i := range rev {
		rev[i] = int64(len(rev) - i)
	}
	dup := make([]int64, 1000)
	for i := range dup {
		dup[i] = int64(r.Intn(3))
	}
	ext := []int64{9223372036854775807, -9223372036854775808, 0, 1, -1, 9223372036854775807, -9223372036854775808}
	return map[string][]int64{
		"random":    rnd,
		"sawtooth":  saw,
		"reverse":   rev,
		"dupheavy":  dup,
		"extremes":  ext,
		"empty":     {},
		"single":    {7},
		"twoswap":   {2, 1},
		"allequal":  make([]int64, 257),
		"presorted": oracleSort(rnd),
	}
}

func TestSortFlatMatchesInterfaceDelayOnly(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 31, 100, 1000, 20000} {
		for _, mean := range []float64{0, 0.5, 5, 50, 500} {
			orig := delayedTimes(n, mean, int64(n)*13+int64(mean)+1)
			runBothPaths(t, "delay", orig, 0)
		}
	}
}

func TestSortFlatMatchesInterfaceAdversarial(t *testing.T) {
	for name, orig := range adversarialInputs() {
		runBothPaths(t, name, orig, 0)
	}
}

func TestSortFlatEveryFixedBlockSize(t *testing.T) {
	orig := delayedTimes(4000, 12, 77)
	sizes := []int{1, 2, 3, 4, 5, 7, 12, 13, 16, 33, 100, 512, 1024, 3999, 4000, 9001}
	for _, L := range sizes {
		runBothPaths(t, "fixedL", orig, L)
	}
	// And the adversarial set across a few block sizes.
	for name, adv := range adversarialInputs() {
		for _, L := range []int{1, 3, 16, 1024} {
			runBothPaths(t, name+"/fixedL", adv, L)
		}
	}
}

func TestSortFlatQuick(t *testing.T) {
	sortsStably := func(times []int64) bool {
		ft := append([]int64(nil), times...)
		fv := make([]int, len(times))
		for i := range fv {
			fv[i] = i
		}
		SortFlat(ft, fv, FlatOptions{})
		want := oracleSort(times)
		for i := range want {
			if ft[i] != want[i] || times[fv[i]] != ft[i] {
				return false
			}
			if i > 0 && ft[i] == ft[i-1] && fv[i] < fv[i-1] {
				return false
			}
		}
		return true
	}
	// Tie-heavy: the same inputs folded onto four timestamps, so almost
	// every record has equals on both sides of every block boundary.
	tieHeavy := func(times []int64) bool {
		folded := make([]int64, len(times))
		for i, v := range times {
			folded[i] = v & 3
		}
		return sortsStably(folded)
	}
	for _, f := range []func([]int64) bool{sortsStably, tieHeavy} {
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzSortFlat feeds arbitrary byte strings as timestamp arrays
// through both paths and the oracle, and checks that the flat path is
// stable and reports the interface path's Trace. `go test` runs the
// seed corpus; `go test -fuzz=FuzzSortFlat ./internal/core` explores
// further.
func FuzzSortFlat(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<63))
	seed := make([]byte, 0, 2048)
	for i := 255; i >= 0; i-- {
		seed = binary.LittleEndian.AppendUint64(seed, uint64(i/3))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		orig := make([]int64, n)
		for i := 0; i < n; i++ {
			orig[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
		}
		p := makePairs(orig)
		trIface := BackwardSort(p, Options{})
		ft := append([]int64(nil), orig...)
		fv := make([]int, n)
		for i := range fv {
			fv[i] = i
		}
		if trFlat := SortFlat(ft, fv, FlatOptions{}); trFlat != trIface {
			t.Fatalf("trace mismatch: interface %+v, flat %+v", trIface, trFlat)
		}
		want := oracleSort(orig)
		for i := range want {
			if ft[i] != want[i] || p.Times[i] != want[i] {
				t.Fatalf("paths diverge from oracle at %d: flat %d, interface %d, want %d",
					i, ft[i], p.Times[i], want[i])
			}
			if orig[fv[i]] != ft[i] {
				t.Fatalf("flat record %d tore apart", i)
			}
		}
		checkStable(t, "fuzz", ft, fv)
	})
}

func TestSortFlatLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	SortFlat([]int64{1, 2}, []int{1}, FlatOptions{})
}

func TestFlatScratchPoolRoundTrip(t *testing.T) {
	// A scratch put back must come out again for the same value type,
	// and the pool must never hand a wrong-typed scratch to a caller.
	s := getFlatScratch[string]()
	s.v = append(s.v[:0], "pinned")
	putFlatScratch(s)
	s2 := getFlatScratch[string]()
	for _, v := range s2.v[:cap(s2.v)] {
		if v != "" {
			t.Fatal("pooled scratch retained value references")
		}
	}
	putFlatScratch(s2)
	// A float64 caller either gets a fresh scratch or a float64 one —
	// getFlatScratch's type assertion guarantees it; just exercise it.
	f := getFlatScratch[float64]()
	putFlatScratch(f)
}

func TestGrowGeometric(t *testing.T) {
	var s []int64
	allocs := 0
	for n := 1; n <= 1<<14; n++ {
		before := cap(s)
		s = growInt64(s, n)
		if len(s) != n {
			t.Fatalf("growInt64(%d): len %d", n, len(s))
		}
		if cap(s) != before {
			allocs++
		}
	}
	// Doubling growth: ~log2(16384) reallocations, not 16384.
	if allocs > 16 {
		t.Fatalf("growInt64 reallocated %d times over monotone growth; want O(log n)", allocs)
	}
}

// TestEnsureScratchGeometric pins the satellite fix: ever-growing
// scratch requests must cost O(log) allocations, not one each.
func TestEnsureScratchGeometric(t *testing.T) {
	const steps = 4096
	allocs := testing.AllocsPerRun(3, func() {
		p := NewPairs([]int64{}, []int{})
		for n := 1; n <= steps; n++ {
			p.EnsureScratch(n)
		}
	})
	// 2 slices × ~log2(4096) reallocations + the Pairs itself; the old
	// exact-fit sizing cost ~2×4096.
	if allocs > 40 {
		t.Fatalf("EnsureScratch allocated %v times for %d monotone requests; growth is not geometric", allocs, steps)
	}
}
