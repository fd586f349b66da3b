// Package experiments regenerates the data series behind every figure
// in the paper's evaluation (Section VI). Each FigNN function returns
// one or more Tables containing exactly the rows/series the paper
// plots; cmd/repro prints them, and bench_test.go wraps
// them in testing.B benchmarks. Sizes are parameterized by Scale so
// the full paper-sized runs and fast CI-sized runs share one code
// path.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sortalgo"
)

// newRand builds a deterministic RNG for one experiment leg.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Table is one figure's data: a header row plus value rows, printed as
// aligned TSV.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Print writes the table as tab-separated text with a title banner.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "## %s — %s\n", t.ID, t.Title)
	fmt.Fprintln(w, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	fmt.Fprintln(w)
}

// Scale sizes an experiment run.
type Scale struct {
	// AlgoN is the array size for the algorithm-only experiments
	// (the paper uses 100,000 — the IoTDB memtable size — for the
	// comparisons and 1,000,000 for parameter tuning).
	AlgoN int
	// TuneN is the array size for the Figure 8 parameter tuning.
	TuneN int
	// MaxSizeSweep caps the Figure 12 size sweep.
	MaxSizeSweep int
	// Reps is how many repetitions each timing averages over.
	Reps int
	// SystemOps is the operation count for the system experiments.
	SystemOps int
	// SystemBatch is the write batch size (paper: 500).
	SystemBatch int
	// MemTableSize is the engine flush threshold.
	MemTableSize int
	// LSTMPoints is the series length for the downstream experiment.
	LSTMPoints int
	// MCPoints is the sample count for the Δτ statistics of Fig. 5 /
	// Example 6 (the paper uses 10^8).
	MCPoints int
	// Seed for reproducibility.
	Seed int64
}

// SmallScale finishes in seconds; used by tests and testing.B.
func SmallScale() Scale {
	return Scale{
		AlgoN:        20000,
		TuneN:        50000,
		MaxSizeSweep: 100000,
		Reps:         1,
		SystemOps:    60,
		SystemBatch:  200,
		MemTableSize: 4000,
		LSTMPoints:   2500,
		MCPoints:     200000,
		Seed:         1,
	}
}

// MediumScale keeps the paper's array sizes for the algorithm figures
// but trims repetition counts and the system grid so a full -fig all
// run records every figure in tens of minutes rather than hours. The
// EXPERIMENTS.md results were produced at this scale.
func MediumScale() Scale {
	return Scale{
		AlgoN:        100000,
		TuneN:        1000000,
		MaxSizeSweep: 10000000,
		Reps:         1,
		SystemOps:    1600,
		SystemBatch:  500,
		MemTableSize: 50000,
		LSTMPoints:   10000,
		MCPoints:     2000000,
		Seed:         1,
	}
}

// PaperScale mirrors the paper's workload sizes (minutes per figure).
func PaperScale() Scale {
	return Scale{
		AlgoN:        100000,
		TuneN:        1000000,
		MaxSizeSweep: 10000000,
		Reps:         3,
		SystemOps:    2000,
		SystemBatch:  500,
		MemTableSize: 100000,
		LSTMPoints:   10000,
		MCPoints:     10000000,
		Seed:         1,
	}
}

// ms formats a duration in milliseconds with 3 decimals.
func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }

// timeSort measures the average wall time of algo over reps fresh
// copies of the series, sorting (time, value) records via core.Pairs.
func timeSort(s *dataset.Series, algo sortalgo.Func, reps int) time.Duration {
	if reps < 1 {
		reps = 1
	}
	var total time.Duration
	for r := 0; r < reps; r++ {
		times := append([]int64(nil), s.Times...)
		values := append([]float64(nil), s.Values...)
		p := core.NewPairs(times, values)
		t0 := time.Now()
		algo(p)
		total += time.Since(t0)
		if !core.IsSorted(p) {
			panic("experiments: algorithm failed to sort (bug)")
		}
	}
	return total / time.Duration(reps)
}

// algoSeries builds the named synthetic or real dataset series used by
// the comparison figures.
func algoSeries(name string, n int, mu, sigma float64, seed int64) *dataset.Series {
	switch name {
	case "absnormal":
		if sigma == 0 {
			return dataset.Ordered(n, seed)
		}
		return dataset.AbsNormal(n, mu, sigma, seed)
	case "lognormal":
		return dataset.LogNormal(n, mu, sigma, seed)
	default:
		s, ok := dataset.ByName(name, n, seed)
		if !ok {
			panic(fmt.Sprintf("experiments: unknown dataset %q", name))
		}
		return s
	}
}
