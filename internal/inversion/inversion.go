// Package inversion measures how out-of-order a time series is, using
// the metrics defined in Section II of the paper:
//
//   - Inversion (Definition 2): pairs i < j with t_i > t_j;
//   - Interval Inversion (Definition 3): points i with t_i > t_{i+L};
//   - Interval Inversion Ratio α_L (Definition 4): interval inversions
//     divided by the number of pairs, N − L;
//   - the down-sampled *empirical* ratio α̃_L of Example 5, which is
//     what the Backward-Sort block-size search actually computes;
//   - the mean overlap length Q of Proposition 4, estimated as the
//     average number of earlier points whose timestamp exceeds the
//     current point's.
package inversion

// Count returns the total number of inversions (Definition 2) in
// O(n log n) time with a merge-count. The input is not modified.
func Count(times []int64) int64 {
	n := len(times)
	if n < 2 {
		return 0
	}
	buf := make([]int64, n)
	work := make([]int64, n)
	copy(work, times)
	return mergeCount(work, buf, 0, n)
}

func mergeCount(a, buf []int64, lo, hi int) int64 {
	if hi-lo < 2 {
		return 0
	}
	mid := (lo + hi) / 2
	inv := mergeCount(a, buf, lo, mid) + mergeCount(a, buf, mid, hi)
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		if a[i] <= a[j] {
			buf[k] = a[i]
			i++
		} else {
			buf[k] = a[j]
			j++
			inv += int64(mid - i)
		}
		k++
	}
	for i < mid {
		buf[k] = a[i]
		i++
		k++
	}
	for j < hi {
		buf[k] = a[j]
		j++
		k++
	}
	copy(a[lo:hi], buf[lo:hi])
	return inv
}

// IntervalInversions returns the number of interval inversions with
// interval L (Definition 3): indices i with t_i > t_{i+L}.
func IntervalInversions(times []int64, L int) int64 {
	if L <= 0 || L >= len(times) {
		return 0
	}
	var c int64
	for i := 0; i+L < len(times); i++ {
		if times[i] > times[i+L] {
			c++
		}
	}
	return c
}

// Ratio returns the exact interval inversion ratio α_L = C/(N−L)
// (Definition 4). ok is false when there are no valid pairs (L <= 0 or
// N <= L) — a ratio of 0 with ok == true means the series really is
// clean at interval L, while ok == false means the signal is empty and
// the caller must not treat it as "perfectly sorted".
func Ratio(times []int64, L int) (alpha float64, ok bool) {
	pairs := len(times) - L
	if L <= 0 || pairs <= 0 {
		return 0, false
	}
	return float64(IntervalInversions(times, L)) / float64(pairs), true
}

// EmpiricalRatio returns the down-sampled estimate α̃_L of Example 5:
// only the stride-L subsample t_0, t_L, t_2L, … is inspected and the
// ratio is the fraction of consecutive sampled pairs that are
// inverted. Each sampled pair (t_{jL}, t_{(j+1)L}) is L apart, so its
// inversion probability is P(Δτ > L) and E[α̃_L] = E[α_L]
// (Proposition 2) — at a scanning cost of only N/L. ok is false when
// the subsample yields no pairs (L <= 0 or N <= L).
func EmpiricalRatio(times []int64, L int) (alpha float64, ok bool) {
	n := len(times)
	if L <= 0 || n <= L {
		return 0, false
	}
	pairs := 0
	inverted := 0
	for j := 0; j+L < n; j += L {
		pairs++
		if times[j] > times[j+L] {
			inverted++
		}
	}
	return float64(inverted) / float64(pairs), true
}

// MeanOverlap estimates E(Q), the expected overlap length between
// adjacent sorted blocks (Proposition 4): for each point m it counts
// the earlier points with a larger timestamp; the mean of that count
// over all points is Σ_k F̄_Δτ(k) = E(Δτ | Δτ ≥ 0) for discrete Δτ
// (Equation 20). Computed exactly via the total inversion count, since
// summing per-point "earlier and larger" counts is exactly Count.
func MeanOverlap(times []int64) float64 {
	if len(times) == 0 {
		return 0
	}
	return float64(Count(times)) / float64(len(times))
}

// IsSorted reports whether times is nondecreasing.
func IsSorted(times []int64) bool {
	for i := 1; i < len(times); i++ {
		if times[i-1] > times[i] {
			return false
		}
	}
	return true
}
