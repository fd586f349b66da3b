// Command e2e is the repository's end-to-end benchmark: four workloads
// against an in-process tsdbd (shard router behind the RPC server and
// the HTTP gateway, on loopback), each checked against a reference
// model, each reporting the same end-to-end metrics and, in a traced
// run, the per-layer metrics that explain them. See ../README.md.
//
//	e2e --workload ingest_ooo --seed 1 --seconds 15 --trace 0
//	e2e --workload all --seed 1 --seconds 15 --out benchmarks/out
//	e2e --workload all --repeat 2 --bounds BENCHMARK.json
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/stats"
)

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	out      string // where trace files go
	work     string // where stores are built
	repeat   int
	bounds   string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured phase in seconds (BENCHMARK.json run_seconds)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run (with -workload all: both)")
	flag.StringVar(&o.scale, "scale", "full", "full, or smoke for a quick check at about a hundredth of the size")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "e2e-out"), "directory for trace-<workload>.json")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "e2e-work"), "directory the stores are built in")
	flag.IntVar(&o.repeat, "repeat", 1, "run the end-to-end set this many times with the same seed and compare the runs against -bounds")
	flag.StringVar(&o.bounds, "bounds", "BENCHMARK.json", "file whose end_to_end bounds -repeat checks against")
	flag.Parse()
	o.trace = trace != 0
	if flag.NArg() > 0 || o.seconds <= 0 || o.repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	ok, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// run executes what the options ask for, writing the report to w. It
// returns false when any op failed or any answer disagreed with the
// model.
func run(o options, w io.Writer) (bool, error) {
	sz, err := scaleByName(o.scale)
	if err != nil {
		return false, err
	}
	if o.repeat > 1 {
		return runRepeat(o, sz, w)
	}
	if o.workload != "all" {
		sp, ok := specByName(o.workload)
		if !ok {
			return false, fmt.Errorf("unknown workload %q (have %s, all)", o.workload, strings.Join(workloadNames(), ", "))
		}
		res, err := runOne(o, sz, sp, o.trace, w)
		if err != nil {
			return false, err
		}
		return res.Correct, json.NewEncoder(w).Encode(res)
	}
	// Every workload, tracing off; then every workload again, traced.
	// The last line merges them under workload/metric names.
	all := resultJSON{Correct: true, Metrics: map[string]metricJSON{}}
	for _, traced := range []bool{false, true} {
		for _, sp := range specs {
			res, err := runOne(o, sz, sp, traced, w)
			if err != nil {
				return false, fmt.Errorf("%s: %w", sp.name, err)
			}
			all.Correct = all.Correct && res.Correct
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			for name, m := range res.Metrics {
				all.Metrics[sp.name+"/"+name] = m
			}
		}
	}
	return all.Correct, json.NewEncoder(w).Encode(all)
}

// runOne runs one workload once and prints one line per metric:
// workload, metric, value, unit, and the sample count where the value
// is a percentile.
func runOne(o options, sz sizes, sp spec, traced bool, w io.Writer) (resultJSON, error) {
	work, err := makeWorkDir(o.work)
	if err != nil {
		return resultJSON{}, err
	}
	defer os.RemoveAll(work)
	h := &harness{sz: sz, seed: o.seed, seconds: o.seconds, workDir: work}
	if traced {
		h.tr = newTracer()
	}
	out, err := runWorkload(h, sp)
	if err != nil {
		return resultJSON{}, err
	}
	var m metricSet
	if traced {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return resultJSON{}, err
		}
		if err := h.tr.writeFile(tracePath(o.out, sp.name)); err != nil {
			return resultJSON{}, fmt.Errorf("write trace: %w", err)
		}
		if m, err = perLayer(h, out, filepath.Join(work, "replay")); err != nil {
			return resultJSON{}, err
		}
	} else {
		m = endToEnd(h, out)
	}

	res := resultJSON{
		Correct:   h.rec.failed == 0,
		Attempted: h.rec.attempted,
		Failed:    h.rec.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range m.decls {
		v := m.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return resultJSON{}, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%s %s %.6g %s%s\n", sp.name, d.name, v, d.unit, m.notes[d.name])
	}
	// The whole latency ladder of every class that has samples, for the
	// reader; "#" keeps these lines out of the metric list.
	for c, s := range h.rec.classes {
		if s.n() == 0 {
			continue
		}
		fmt.Fprintf(w, "# %s %s n=%d", sp.name, classNames[c], s.n())
		for _, p := range tailLadder {
			fmt.Fprintf(w, " p%g=%.4g", p, stats.Percentile(s.ms, p))
		}
		fmt.Fprintln(w, " ms")
	}
	for _, what := range h.mismatch {
		fmt.Fprintf(w, "%s MISMATCH %s\n", sp.name, what)
	}
	if res.Failed > 0 {
		fmt.Fprintf(w, "%s FAILED %d of %d ops (%d refused as overloaded)\n", sp.name, res.Failed, res.Attempted, h.rec.refused)
	}
	return res, nil
}
