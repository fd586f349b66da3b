package core

// This file is the single implementation of Algorithm 1's
// set-block-size phase (lines 1-8). The interface path (backward.go)
// and the flat kernel (flat.go) used to carry parallel copies of the
// doubling search and the stride-L estimator; both now delegate here,
// over a timestamp accessor, so the two paths cannot drift apart.

// searchBlockSize performs the iterative block-size search: starting
// at l0 it estimates the empirical interval inversion ratio α̃_L by
// down-sampling (Example 5) and doubles L while α̃_L ≥ Θ (Equation
// 15). The scan touches n/L points per iteration, O(n/l0) in total
// (Proposition 3). An L that reaches n is capped at n.
func searchBlockSize(n int, at func(int) int64, l0 int, theta float64) (L, iterations int) {
	L = l0
	for L <= n {
		iterations++
		if empiricalIIR(n, at, L) < theta {
			return L, iterations
		}
		L *= 2
	}
	return n, iterations
}

// empiricalIIR estimates α̃_L from the stride-L subsample t_0, t_L,
// t_2L, …: the fraction of consecutive sampled pairs that are
// inverted. Each sampled pair is L apart, so E[α̃_L] = E[α_L] =
// F̄_Δτ(L) (Proposition 2).
func empiricalIIR(n int, at func(int) int64, L int) float64 {
	if L <= 0 || L >= n {
		return 0
	}
	pairs, inverted := 0, 0
	prev := at(0)
	for i := L; i < n; i += L {
		t := at(i)
		pairs++
		if prev > t {
			inverted++
		}
		prev = t
	}
	return float64(inverted) / float64(pairs)
}
