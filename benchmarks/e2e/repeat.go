package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the repeatability check
// reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// runRepeat runs the end-to-end set o.repeat times back to back with
// the same seed and prints, per workload and metric, every value, the
// largest difference relative to the first run, and the bound. It
// returns false when any difference exceeds its bound: the benchmark
// cannot then tell a regression of that size from its own noise.
func runRepeat(o options, sz sizes, w io.Writer) (bool, error) {
	bf, err := readBenchmarkFile(o.bounds)
	if err != nil {
		return false, err
	}
	selected := specs
	if o.workload != "all" {
		sp, ok := specByName(o.workload)
		if !ok {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []spec{sp}
	}
	ok := true
	for _, sp := range selected {
		runs := make([]resultJSON, o.repeat)
		for i := range runs {
			if runs[i], err = runOne(o, sz, sp, false, io.Discard); err != nil {
				return false, fmt.Errorf("%s run %d: %w", sp.name, i+1, err)
			}
			ok = ok && runs[i].Correct
		}
		for _, e := range bf.EndToEnd {
			first := runs[0].Metrics[e.Name].Value
			var worst float64
			fmt.Fprintf(w, "%s %s", sp.name, e.Name)
			for _, r := range runs {
				v := r.Metrics[e.Name].Value
				fmt.Fprintf(w, " %.6g", v)
				if d := ratio(v-first, first); d < 0 {
					worst = max(worst, -d)
				} else {
					worst = max(worst, d)
				}
			}
			verdict := "ok"
			if worst > e.Bound {
				verdict, ok = "OUTSIDE", false
			}
			fmt.Fprintf(w, " %s diff=%.4f bound=%.2f %s\n", e.Unit, worst, e.Bound, verdict)
		}
	}
	return ok, nil
}
