// Command sortbench measures the flat-sort kernel against the
// interface path and writes the results as BENCH_sort.json. It backs
// the PR's performance claims and the CI smoke job:
//
//	sortbench                      # 1M-point AbsNormal, full run
//	sortbench -quick -check        # CI: small n, fail on alloc regressions
//	sortbench -out BENCH_sort.json
//
// The flat kernel row keeps its historical name flat_p1 so the JSON
// trajectory stays comparable across versions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sortalgo"
	"repro/internal/tvlist"
)

// Entry is one benchmark row.
type Entry struct {
	Name     string  `json:"name"`
	NsPerOp  float64 `json:"ns_op"`
	BytesOp  int64   `json:"bytes_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// Report is the BENCH_sort.json schema.
type Report struct {
	GeneratedBy             string  `json:"generated_by"`
	Dataset                 string  `json:"dataset"`
	N                       int     `json:"n"`
	GoMaxProcs              int     `json:"gomaxprocs"`
	Entries                 []Entry `json:"entries"`
	SteadyStateAllocsFlatP1 float64 `json:"steady_state_allocs_flat_p1"`
	SpeedupFlatP1           float64 `json:"speedup_flat_p1_vs_interface"`
}

func main() {
	n := flag.Int("n", 1<<20, "points per sort")
	quick := flag.Bool("quick", false, "CI scale: shrink n to 1<<15")
	out := flag.String("out", "BENCH_sort.json", "output file (empty = stdout only)")
	check := flag.Bool("check", false, "exit nonzero if the kernel or the tvlist_flat row allocates in steady state")
	flag.Parse()
	if *quick {
		*n = 1 << 15
	}

	s := dataset.AbsNormal(*n, 1, 2, 1)
	rep := Report{
		GeneratedBy: "cmd/sortbench",
		Dataset:     "absnormal(mu=1,sigma=2,seed=1)",
		N:           *n,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}

	bench := func(name string, fn func(b *testing.B)) Entry {
		r := testing.Benchmark(fn)
		e := Entry{Name: name, NsPerOp: float64(r.NsPerOp()), BytesOp: r.AllocedBytesPerOp(), AllocsOp: r.AllocsPerOp()}
		fmt.Printf("%-22s %14.0f ns/op %10d B/op %6d allocs/op\n", e.Name, e.NsPerOp, e.BytesOp, e.AllocsOp)
		return e
	}

	// Interface path: the core.Sortable Pairs adapter, exactly what the
	// pre-kernel engine ran.
	backward := sortalgo.MustGet("backward")
	ifaceEntry := bench("interface_pairs", func(b *testing.B) {
		p := core.NewPairs(make([]int64, len(s.Times)), make([]float64, len(s.Values)))
		p.EnsureScratch(len(s.Times))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(p.Times, s.Times)
			copy(p.Values, s.Values)
			b.StartTimer()
			backward(p)
		}
	})
	rep.Entries = append(rep.Entries, ifaceEntry)

	flatP1 := bench("flat_p1", func(b *testing.B) {
		t := make([]int64, len(s.Times))
		v := make([]float64, len(s.Values))
		copy(t, s.Times)
		copy(v, s.Values)
		core.SortFlat(t, v, core.FlatOptions{}) // warm the scratch pool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(t, s.Times)
			copy(v, s.Values)
			b.StartTimer()
			core.SortFlat(t, v, core.FlatOptions{})
		}
	})
	rep.Entries = append(rep.Entries, flatP1)

	// End-to-end TVList cost: Put + sort, the paper profile's blocked
	// list through the interface vs the serving engine's contiguous
	// list through the flat kernel in place. Loading is outside the
	// timer, so these rows measure the kernel in situ.
	loadList := func(l *tvlist.TVList[float64]) {
		l.Reset()
		for i := range s.Times {
			l.Put(s.Times[i], s.Values[i])
		}
	}
	rep.Entries = append(rep.Entries, bench("tvlist_interface", func(b *testing.B) {
		l := tvlist.New[float64]()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			loadList(l)
			b.StartTimer()
			l.EnsureSorted(backward)
		}
	}))
	tvlistFlat := bench("tvlist_flat", func(b *testing.B) {
		l := tvlist.NewContiguous[float64]()
		loadList(l)
		l.EnsureSortedFlat(core.FlatOptions{}) // warm the scratch pool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			loadList(l)
			b.StartTimer()
			l.EnsureSortedFlat(core.FlatOptions{})
		}
	})
	rep.Entries = append(rep.Entries, tvlistFlat)

	// Steady-state allocation count for the sequential kernel — the
	// zero-alloc contract the engine's flush path relies on.
	{
		t := make([]int64, len(s.Times))
		v := make([]float64, len(s.Values))
		copy(t, s.Times)
		copy(v, s.Values)
		core.SortFlat(t, v, core.FlatOptions{})
		rep.SteadyStateAllocsFlatP1 = testing.AllocsPerRun(5, func() {
			copy(t, s.Times)
			copy(v, s.Values)
			core.SortFlat(t, v, core.FlatOptions{})
		})
	}
	rep.SpeedupFlatP1 = ifaceEntry.NsPerOp / flatP1.NsPerOp
	fmt.Printf("steady-state allocs (flat p1): %.1f\n", rep.SteadyStateAllocsFlatP1)
	fmt.Printf("speedup flat_p1 vs interface: %.2fx (GOMAXPROCS=%d)\n", rep.SpeedupFlatP1, rep.GoMaxProcs)

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "sortbench: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sortbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *check {
		// Timing is too noisy to gate CI on; the allocation contract is
		// deterministic. AllocsPerRun averaging means a lone GC-induced
		// pool flush shows up as a fraction, so gate on >= 1.
		// The tvlist_flat row is the serving engine's sort: Put into a
		// contiguous list, then an in-place flat sort.
		if rep.SteadyStateAllocsFlatP1 >= 1 || tvlistFlat.AllocsOp > 0 {
			fmt.Fprintf(os.Stderr, "sortbench: sort path allocates in steady state (kernel %.1f, tvlist_flat %d allocs/op)\n",
				rep.SteadyStateAllocsFlatP1, tvlistFlat.AllocsOp)
			os.Exit(1)
		}
		fmt.Println("check passed: kernel and tvlist_flat are allocation-free in steady state")
	}
}
