package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/delay"
	"repro/internal/inversion"
	"repro/internal/sortalgo"
	"repro/internal/stats"
	"repro/internal/tvlist"
)

// Fig2 reproduces the Figure 2 analysis: record-move counts of the
// straight (bottom-up, untrimmed) merge versus the backward merge on
// delay-only data, both sorting identical blocks first. The paper's
// worked example gives 4M+4 vs 3M+7; here the counts are measured on a
// generated series.
func Fig2(sc Scale) *Table {
	t := &Table{
		ID:     "fig2",
		Title:  "Straight vs Backward merge: record moves (blocks pre-sorted identically)",
		Header: []string{"dataset", "n", "block", "straight_moves", "backward_moves", "reduction_pct"},
	}
	for _, spec := range []struct {
		name      string
		mu, sigma float64
	}{
		{"lognormal", 1, 1},
		{"lognormal", 1, 2},
		{"absnormal", 1, 4},
	} {
		s := algoSeries(spec.name, sc.AlgoN, spec.mu, spec.sigma, sc.Seed)
		block := 256
		straight := core.NewCounter(core.NewPairs(append([]int64(nil), s.Times...), append([]float64(nil), s.Values...)))
		sortalgo.StraightMergeFrom(straight, block)
		backward := core.NewCounter(core.NewPairs(append([]int64(nil), s.Times...), append([]float64(nil), s.Values...)))
		core.BackwardSort(backward, core.Options{FixedBlockSize: block})
		sm, bm := straight.TotalMoves(), backward.TotalMoves()
		red := 100 * (1 - float64(bm)/float64(sm))
		t.AddRow(fmt.Sprintf("%s(%g,%g)", spec.name, spec.mu, spec.sigma),
			fmt.Sprint(sc.AlgoN), fmt.Sprint(block),
			fmt.Sprint(sm), fmt.Sprint(bm), fmt.Sprintf("%.1f", red))
	}
	return t
}

// Fig5 reproduces Figure 5: the PDF of the delay difference Δτ for
// exponential delays τ ~ E(λ), λ ∈ {1,2,3} — analytic f_Δτ(t) =
// (λ/2)e^{−λ|t|} against a Monte Carlo histogram.
func Fig5(sc Scale) *Table {
	t := &Table{
		ID:     "fig5",
		Title:  "PDF of Δτ for τ~E(λ): analytic vs empirical",
		Header: []string{"t", "analytic_l1", "empirical_l1", "analytic_l2", "empirical_l2", "analytic_l3", "empirical_l3"},
	}
	const lo, hi, buckets = -4.0, 4.0, 33
	hists := make([]*stats.Histogram, 3)
	lambdas := []float64{1, 2, 3}
	for i, l := range lambdas {
		h := stats.NewHistogram(lo, hi, buckets)
		e := delay.Exponential{Lambda: l}
		n := sc.MCPoints
		// Pairwise Δτ samples.
		r := newRand(sc.Seed + int64(i))
		for k := 0; k < n; k++ {
			h.Add(e.Sample(r) - e.Sample(r))
		}
		hists[i] = h
	}
	for b := 0; b < buckets; b++ {
		x := hists[0].BucketCenter(b)
		row := []string{fmt.Sprintf("%.2f", x)}
		for i, l := range lambdas {
			e := delay.Exponential{Lambda: l}
			row = append(row,
				fmt.Sprintf("%.4f", e.DeltaTauPDF(x)),
				fmt.Sprintf("%.4f", hists[i].Density(b)))
		}
		t.AddRow(row...)
	}
	return t
}

// Example6 reproduces the Example 6 numbers: empirical interval
// inversion ratios of an exponentially delayed series against the
// closed form E[α_L] = e^{−λL}/2 (λ=2, intervals 1 and 5, as in
// Equations 12–13).
func Example6(sc Scale) *Table {
	t := &Table{
		ID:     "ex6",
		Title:  "Empirical vs theoretical IIR, τ~E(2) (paper Eq. 12–13)",
		Header: []string{"L", "alpha_empirical", "alpha_theoretical"},
	}
	d := delay.Exponential{Lambda: 2}
	s := dataset.Generate("exp2", sc.MCPoints, d, sc.Seed)
	for _, L := range []int{1, 2, 5} {
		emp, _ := inversion.Ratio(s.Times, L)
		theo := d.DeltaTauTail(float64(L))
		t.AddRow(fmt.Sprint(L), fmt.Sprintf("%.6g", emp), fmt.Sprintf("%.6g", theo))
	}
	return t
}

// Example7 validates Proposition 4 with the sorter's own trace: the
// average overlap length Q observed by Backward-Sort's merges is
// bounded by E(Δτ | Δτ ≥ 0). For the discrete uniform delay of the
// paper's Example 7 the bound quantity Σ_k F̄(k) is 5/8.
func Example7(sc Scale) *Table {
	t := &Table{
		ID:     "ex7",
		Title:  fmt.Sprintf("Observed merge overlap vs E(Δτ|Δτ≥0) bound (Prop. 4), n=%d", sc.AlgoN),
		Header: []string{"delay", "avg_overlap_Q", "bound_E(dtau|dtau>=0)"},
	}
	dists := []struct {
		d     delay.Distribution
		bound float64
	}{
		{delay.DiscreteUniform{K: 3}, delay.MeanNonNegDeltaTauMC(delay.DiscreteUniform{K: 3}, 400000, sc.Seed)},
		{delay.Exponential{Lambda: 1}, delay.MeanNonNegDeltaTauMC(delay.Exponential{Lambda: 1}, 400000, sc.Seed)},
		{delay.Exponential{Lambda: 0.2}, delay.MeanNonNegDeltaTauMC(delay.Exponential{Lambda: 0.2}, 400000, sc.Seed)},
		{delay.AbsNormal{Mu: 1, Sigma: 4}, delay.MeanNonNegDeltaTauMC(delay.AbsNormal{Mu: 1, Sigma: 4}, 400000, sc.Seed)},
	}
	for _, spec := range dists {
		s := dataset.Generate(spec.d.Name(), sc.AlgoN, spec.d, sc.Seed)
		p := core.NewPairs(append([]int64(nil), s.Times...), append([]float64(nil), s.Values...))
		// Fixed small blocks keep many boundaries so the average is
		// tight. Q averages over *all* block boundaries (Prop. 4's
		// expectation), including those that needed no merge.
		tr := core.BackwardSort(p, core.Options{FixedBlockSize: 64})
		avgQ := 0.0
		if tr.Blocks > 1 {
			avgQ = float64(tr.OverlapTotal) / float64(tr.Blocks-1)
		}
		t.AddRow(spec.d.Name(), fmt.Sprintf("%.4f", avgQ), fmt.Sprintf("%.4f", spec.bound))
	}
	return t
}

// blockSizes returns powers of two from 2^lo to 2^hi capped at n.
func blockSizes(lo, hi, n int) []int {
	var out []int
	for e := lo; e <= hi; e++ {
		L := 1 << e
		if L > n {
			break
		}
		out = append(out, L)
	}
	return out
}

// Fig8a reproduces Figure 8(a): the empirical interval inversion ratio
// α̃_L versus block size for the four real-world datasets.
func Fig8a(sc Scale) *Table {
	t := &Table{
		ID:     "fig8a",
		Title:  fmt.Sprintf("IIR vs block size (n=%d)", sc.TuneN),
		Header: []string{"L"},
	}
	names := dataset.RealWorldNames()
	t.Header = append(t.Header, names...)
	series := make([]*dataset.Series, len(names))
	for i, name := range names {
		series[i], _ = dataset.ByName(name, sc.TuneN, sc.Seed)
	}
	for _, L := range blockSizes(0, 18, sc.TuneN) {
		row := []string{fmt.Sprint(L)}
		for _, s := range series {
			alpha, _ := inversion.EmpiricalRatio(s.Times, L)
			row = append(row, fmt.Sprintf("%.3g", alpha))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig8b reproduces Figure 8(b): Backward-Sort wall time with the block
// size fixed manually (bypassing the set-block-size search), versus
// block size, on the four real-world datasets. L=1 is Insertion-Sort,
// L=n is Quicksort (Figure 6).
func Fig8b(sc Scale) *Table {
	t := &Table{
		ID:     "fig8b",
		Title:  fmt.Sprintf("Sort time (ms) vs fixed block size (n=%d)", sc.TuneN),
		Header: []string{"L"},
	}
	names := dataset.RealWorldNames()
	t.Header = append(t.Header, names...)
	series := make([]*dataset.Series, len(names))
	for i, name := range names {
		series[i], _ = dataset.ByName(name, sc.TuneN, sc.Seed)
	}
	for _, L := range blockSizes(2, 17, sc.TuneN) {
		row := []string{fmt.Sprint(L)}
		for _, s := range series {
			fixed := func(x core.Sortable) { core.BackwardSort(x, core.Options{FixedBlockSize: L}) }
			row = append(row, ms(timeSort(s, fixed, sc.Reps)))
		}
		t.AddRow(row...)
	}
	return t
}

// sigmaSweep runs the Figure 9/10 comparison: sort time of the six
// paper algorithms over σ ∈ {ordered, 0.5, 1, 2, 4} for a fixed μ.
func sigmaSweep(id, title, family string, mu float64, sc Scale) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: append([]string{"sigma"}, sortalgo.PaperNames()...),
	}
	for _, sigma := range []float64{0, 0.5, 1, 2, 4} {
		label := fmt.Sprint(sigma)
		if sigma == 0 {
			label = "ordered"
		}
		s := algoSeries(family, sc.AlgoN, mu, sigma, sc.Seed)
		row := []string{label}
		for _, name := range sortalgo.PaperNames() {
			row = append(row, ms(timeSort(s, sortalgo.MustGet(name), sc.Reps)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig9 reproduces Figure 9: AbsNormal(μ,σ) sort time, μ ∈ {1,4}.
func Fig9(sc Scale) []*Table {
	return []*Table{
		sigmaSweep("fig9a", fmt.Sprintf("Sort time (ms), AbsNormal(1,σ), n=%d", sc.AlgoN), "absnormal", 1, sc),
		sigmaSweep("fig9b", fmt.Sprintf("Sort time (ms), AbsNormal(4,σ), n=%d", sc.AlgoN), "absnormal", 4, sc),
	}
}

// Fig10 reproduces Figure 10: LogNormal(μ,σ) sort time, μ ∈ {1,4}.
func Fig10(sc Scale) []*Table {
	return []*Table{
		sigmaSweep("fig10a", fmt.Sprintf("Sort time (ms), LogNormal(1,σ), n=%d", sc.AlgoN), "lognormal", 1, sc),
		sigmaSweep("fig10b", fmt.Sprintf("Sort time (ms), LogNormal(4,σ), n=%d", sc.AlgoN), "lognormal", 4, sc),
	}
}

// Fig11 reproduces Figure 11: sort time on the four real-world
// datasets.
func Fig11(sc Scale) *Table {
	t := &Table{
		ID:     "fig11",
		Title:  fmt.Sprintf("Sort time (ms), real-world datasets, n=%d", sc.AlgoN),
		Header: append([]string{"dataset"}, sortalgo.PaperNames()...),
	}
	for _, name := range dataset.RealWorldNames() {
		s := algoSeries(name, sc.AlgoN, 0, 0, sc.Seed)
		row := []string{name}
		for _, algo := range sortalgo.PaperNames() {
			row = append(row, ms(timeSort(s, sortalgo.MustGet(algo), sc.Reps)))
		}
		t.AddRow(row...)
	}
	return t
}

// fig12Specs are Figure 12's panels: AbsNormal(0,1), LogNormal(0,1),
// CitiBike-201808 and Samsung-S10.
var fig12Specs = []struct {
	id, family string
	mu, sigma  float64
}{
	{"fig12a", "absnormal", 0, 1},
	{"fig12b", "lognormal", 0, 1},
	{"fig12c", "citibike-201808", 0, 0},
	{"fig12d", "samsung-s10", 0, 0},
}

// Fig12 reproduces Figure 12: sort time versus array size, one panel
// per fig12Specs entry.
func Fig12(sc Scale) []*Table {
	var out []*Table
	for _, spec := range fig12Specs {
		t := &Table{
			ID:     spec.id,
			Title:  fmt.Sprintf("Sort time (ms) vs array size, %s", datasetLabel(spec.family, spec.mu, spec.sigma)),
			Header: append([]string{"n"}, sortalgo.PaperNames()...),
		}
		for n := 10000; n <= sc.MaxSizeSweep; n *= 10 {
			s := algoSeries(spec.family, n, spec.mu, spec.sigma, sc.Seed)
			row := []string{fmt.Sprint(n)}
			for _, algo := range sortalgo.PaperNames() {
				row = append(row, ms(timeSort(s, sortalgo.MustGet(algo), sc.Reps)))
			}
			t.AddRow(row...)
		}
		out = append(out, t)
	}
	return out
}

func datasetLabel(family string, mu, sigma float64) string {
	switch family {
	case "absnormal":
		return fmt.Sprintf("AbsNormal(%g,%g)", mu, sigma)
	case "lognormal":
		return fmt.Sprintf("LogNormal(%g,%g)", mu, sigma)
	default:
		return family
	}
}

// AblationTheta sweeps the IIR threshold Θ around the paper's fixed
// Θ̃ = 0.04, reporting the chosen block size and the sort time.
func AblationTheta(sc Scale) *Table {
	t := &Table{
		ID:     "ablation-theta",
		Title:  fmt.Sprintf("Θ sweep, LogNormal(1,2), n=%d", sc.AlgoN),
		Header: []string{"theta", "chosen_L", "search_iters", "time_ms"},
	}
	s := algoSeries("lognormal", sc.AlgoN, 1, 2, sc.Seed)
	for _, theta := range []float64{0.5, 0.2, 0.08, 0.04, 0.02, 0.01, 0.001} {
		var tr core.Trace
		algo := func(x core.Sortable) { tr = core.BackwardSort(x, core.Options{Threshold: theta}) }
		d := timeSort(s, algo, sc.Reps)
		t.AddRow(fmt.Sprint(theta), fmt.Sprint(tr.BlockSize), fmt.Sprint(tr.SearchIterations), ms(d))
	}
	return t
}

// AblationL0 sweeps the initial block size L0 (the paper argues for
// L0 = 4 in Section VI-B).
func AblationL0(sc Scale) *Table {
	t := &Table{
		ID:     "ablation-l0",
		Title:  fmt.Sprintf("L0 sweep, LogNormal(1,2), n=%d", sc.AlgoN),
		Header: []string{"L0", "chosen_L", "search_iters", "time_ms"},
	}
	s := algoSeries("lognormal", sc.AlgoN, 1, 2, sc.Seed)
	for _, l0 := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		var tr core.Trace
		algo := func(x core.Sortable) { tr = core.BackwardSort(x, core.Options{InitialBlockSize: l0}) }
		d := timeSort(s, algo, sc.Reps)
		t.AddRow(fmt.Sprint(l0), fmt.Sprint(tr.BlockSize), fmt.Sprint(tr.SearchIterations), ms(d))
	}
	return t
}

// AblationArrayLen sweeps the TVList array length (Section V-B's
// List<Array> compromise, default 32): tiny arrays pay index
// translation on every access, huge arrays approach a flat buffer.
func AblationArrayLen(sc Scale) *Table {
	t := &Table{
		ID:     "ablation-arraylen",
		Title:  fmt.Sprintf("TVList array length sweep, backward sort, LogNormal(1,2), n=%d", sc.AlgoN),
		Header: []string{"array_len", "sort_ms"},
	}
	s := algoSeries("lognormal", sc.AlgoN, 1, 2, sc.Seed)
	for _, arrayLen := range []int{1, 4, 32, 256, 4096, 65536} {
		var total time.Duration
		reps := sc.Reps
		if reps < 1 {
			reps = 1
		}
		for r := 0; r < reps; r++ {
			l := tvlist.NewWithArrayLen[float64](arrayLen)
			for i := range s.Times {
				l.Put(s.Times[i], s.Values[i])
			}
			t0 := time.Now()
			l.Sort(func(x core.Sortable) { core.BackwardSort(x, core.Options{}) })
			total += time.Since(t0)
			if !core.IsSorted(l) {
				panic("experiments: TVList sort failed")
			}
		}
		t.AddRow(fmt.Sprint(arrayLen), ms(total/time.Duration(reps)))
	}
	return t
}

// AblationIIREstimate compares the down-sampled empirical IIR α̃_L
// against the exact α_L (accuracy of the Example 5 estimator).
func AblationIIREstimate(sc Scale) *Table {
	t := &Table{
		ID:     "ablation-iir",
		Title:  fmt.Sprintf("Exact vs down-sampled IIR, LogNormal(1,2), n=%d", sc.TuneN),
		Header: []string{"L", "alpha_exact", "alpha_downsampled", "abs_error"},
	}
	s := algoSeries("lognormal", sc.TuneN, 1, 2, sc.Seed)
	for _, L := range blockSizes(0, 12, sc.TuneN) {
		exact, _ := inversion.Ratio(s.Times, L)
		emp, _ := inversion.EmpiricalRatio(s.Times, L)
		t.AddRow(fmt.Sprint(L), fmt.Sprintf("%.5g", exact), fmt.Sprintf("%.5g", emp),
			fmt.Sprintf("%.3g", math.Abs(exact-emp)))
	}
	return t
}
