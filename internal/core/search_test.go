package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/delay"
)

// TestSearchPathsPickIdenticalL is the property test guarding the
// deduplicated block-size search: for identical input, the interface
// path (setBlockSize over a Sortable) and the flat kernel
// (setBlockSizeFlat over a slice) must pick the identical L with the
// identical iteration count, across delay scenarios.
func TestSearchPathsPickIdenticalL(t *testing.T) {
	scenarios := []struct {
		name string
		d    delay.Distribution
	}{
		{"constant0", delay.Constant{}},
		{"exp2", delay.Exponential{Lambda: 2}},
		{"exp0.1", delay.Exponential{Lambda: 0.1}},
		{"absnormal", delay.AbsNormal{Mu: 1, Sigma: 2}},
		{"lognormal", delay.LogNormal{Mu: 1, Sigma: 2}},
		{"uniform", delay.DiscreteUniform{K: 64}},
		{"pareto", delay.Truncated{Inner: delay.Pareto{Xm: 1, Alpha: 1.1}, Max: 5000}},
		{"clockskew", delay.ClockSkew{P: 0.3, Skew: 200, Jitter: 2}},
		{"mixture", delay.Mixture{P: 0.9, A: delay.Constant{}, B: delay.Exponential{Lambda: 0.05}}},
	}
	sizes := []int{2, 5, 100, 4096, 100000}
	for _, sc := range scenarios {
		for _, n := range sizes {
			s := dataset.Generate(sc.name, n, sc.d, 42)
			times := s.Times
			wantL, wantIters := setBlockSizeFlat(times, DefaultInitialBlockSize, DefaultThreshold)
			p := NewPairs(append([]int64(nil), times...), make([]float64, n))
			gotL, gotIters := setBlockSize(p, DefaultInitialBlockSize, DefaultThreshold)
			if gotL != wantL || gotIters != wantIters {
				t.Errorf("%s n=%d: interface picked L=%d in %d iters, flat picked L=%d in %d iters",
					sc.name, n, gotL, gotIters, wantL, wantIters)
			}
		}
	}
}

// TestSearchPhaseZeroMatchesPaperAnchor pins the search's estimator to
// the paper's semantics: for every stride L it must equal the inverted
// share of the t_0, t_L, t_2L, … subsample, anchored at t_0, on the
// paper's Figure 3 sequence (α̃_3 = 0.25, Example 5).
func TestSearchPhaseZeroMatchesPaperAnchor(t *testing.T) {
	fig3 := []int64{4, 3, 9, 8, 5, 6, 11, 1, 12, 7, 15, 2, 16, 17, 18}
	at := func(i int) int64 { return fig3[i] }
	n := len(fig3)
	if got := empiricalIIR(n, at, 3); got != 0.25 {
		t.Fatalf("t_0-anchored α̃_3 = %g, want 0.25", got)
	}
	for L := 1; L <= n+1; L++ {
		pairs, inverted := 0, 0
		for i := L; i < n; i += L {
			pairs++
			if fig3[i-L] > fig3[i] {
				inverted++
			}
		}
		want := 0.0
		if pairs > 0 {
			want = float64(inverted) / float64(pairs)
		}
		if got := empiricalIIR(n, at, L); got != want {
			t.Errorf("α̃_%d = %g, t_0-anchored subsample gives %g", L, got, want)
		}
	}
	// L = n yields 0 pairs, reported as ratio 0.
	if got := empiricalIIR(n, at, n); got != 0 {
		t.Fatalf("α̃ at L=n should be 0, got %g", got)
	}
}

// algorithm1 is Algorithm 1 lines 1-8 written out from the paper:
// double L from l0 until the stride-L subsample's inverted-pair share
// drops below Θ, capping L at n.
func algorithm1(times []int64, l0 int) (L, iters int) {
	n := len(times)
	for L = l0; L <= n; L *= 2 {
		iters++
		pairs, inverted := 0, 0
		for i := L; i < n; i += L {
			pairs++
			if times[i-L] > times[i] {
				inverted++
			}
		}
		if pairs == 0 || float64(inverted)/float64(pairs) < DefaultThreshold {
			return L, iters
		}
	}
	return n, iters
}

// TestSearchMatchesAlgorithm1 is the L0 ablation's guard: for every
// initial block size the sweep uses, both kernels must choose the L
// and take the iteration count of the paper's own search. A search
// that second-guesses a large L0 (restarting below it when its first
// probe clears Θ) fails the l0 = 256 and 1024 rows.
func TestSearchMatchesAlgorithm1(t *testing.T) {
	const n = 100000
	s := dataset.Generate("lognormal", n, delay.LogNormal{Mu: 1, Sigma: 2}, 42)
	for _, l0 := range []int{4, 64, 256, 1024} {
		wantL, wantIters := algorithm1(s.Times, l0)
		p := NewPairs(append([]int64(nil), s.Times...), make([]float64, n))
		tr := BackwardSort(p, Options{InitialBlockSize: l0})
		if tr.BlockSize != wantL || tr.SearchIterations != wantIters {
			t.Errorf("l0=%d: BackwardSort chose L=%d in %d iters, Algorithm 1 L=%d in %d",
				l0, tr.BlockSize, tr.SearchIterations, wantL, wantIters)
		}
		if gotL, gotIters := setBlockSizeFlat(s.Times, l0, DefaultThreshold); gotL != wantL || gotIters != wantIters {
			t.Errorf("l0=%d: flat search chose L=%d in %d iters, Algorithm 1 L=%d in %d",
				l0, gotL, gotIters, wantL, wantIters)
		}
		if l0 == DefaultInitialBlockSize {
			times := append([]int64(nil), s.Times...)
			tr := SortFlat(times, make([]float64, n), FlatOptions{})
			if tr.BlockSize != wantL || tr.SearchIterations != wantIters {
				t.Errorf("SortFlat chose L=%d in %d iters, Algorithm 1 L=%d in %d",
					tr.BlockSize, tr.SearchIterations, wantL, wantIters)
			}
		}
		if l0 >= 256 && wantL != l0 {
			t.Errorf("l0=%d: Algorithm 1 chose L=%d; the sweep's large-L0 rows keep their L0", l0, wantL)
		}
	}
}
