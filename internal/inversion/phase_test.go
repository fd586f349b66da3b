package inversion

import (
	"testing"
)

// mustRatio and mustEmpirical unwrap the (value, ok) pair for tests
// whose inputs are known to carry enough data.
func mustRatio(t *testing.T, times []int64, L int) float64 {
	t.Helper()
	r, ok := Ratio(times, L)
	if !ok {
		t.Fatalf("Ratio(n=%d, L=%d): not enough data", len(times), L)
	}
	return r
}

func mustEmpirical(t *testing.T, times []int64, L int) float64 {
	t.Helper()
	r, ok := EmpiricalRatio(times, L)
	if !ok {
		t.Fatalf("EmpiricalRatio(n=%d, L=%d): not enough data", len(times), L)
	}
	return r
}

// periodicAdversary builds a series that defeats the stride-L
// subsample: residue classes 0, 2, 3 (mod 4) are clean, while class 1
// alternates +jump/−jump with period 2L so roughly half of its
// stride-L pairs are inverted. A subsample anchored at index 0 only
// ever compares class-0 elements and reports α̃_L = 0 even though the
// exact α_L is ≈ 1/8.
func periodicAdversary(n, L int) []int64 {
	times := make([]int64, n)
	for i := 0; i < n; i++ {
		t := int64(i) * 10
		if i%4 == 1 {
			if i%(2*L) < L {
				t += 100
			} else {
				t -= 100
			}
		}
		times[i] = t
	}
	return times
}

// TestEmpiricalRatioPhaseBiasOnPeriodicInput documents the known blind
// spot of the paper's estimator: its subsample is anchored at t_0, so
// disorder confined to a residue class the anchor never visits goes
// unseen. Prop. 2's unbiasedness holds for the delay model's i.i.d.
// delays, not for adversarial periodic patterns.
func TestEmpiricalRatioPhaseBiasOnPeriodicInput(t *testing.T) {
	const n, L = 4096, 4
	times := periodicAdversary(n, L)

	exact := mustRatio(t, times, L)
	if exact < 0.1 {
		t.Fatalf("adversary construction broken: exact α_%d = %g, want ≈ 0.125", L, exact)
	}
	if got := mustEmpirical(t, times, L); got != 0 {
		t.Fatalf("anchored subsample should miss the class-1 disorder entirely, got %g", got)
	}
}
