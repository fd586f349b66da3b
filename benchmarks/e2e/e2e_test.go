package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

const benchmarkJSON = "../../BENCHMARK.json"

// TestSmokeAllWorkloads runs the four workloads at smoke scale, untraced
// and traced, and holds the output to what BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	ok, err := run(options{
		workload: "all", seed: 7, seconds: 0.4, scale: "smoke", repeat: 1,
		out: filepath.Join(dir, "out"), work: filepath.Join(dir, "work"),
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	if !ok {
		t.Fatalf("ops failed or answers disagreed with the model:\n%s", buf.String())
	}

	// Every declared metric exactly once per workload, finite, well named.
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]int{}
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		last = sc.Text()
		if strings.HasPrefix(last, "{") || strings.HasPrefix(last, "#") {
			continue
		}
		f := strings.Fields(last)
		if len(f) < 4 {
			t.Fatalf("malformed line %q", last)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s %s: value %q is not a finite number", f[0], f[1], f[2])
		}
		if !nameRE.MatchString(f[1]) {
			t.Errorf("metric name %q is not allowed", f[1])
		}
		seen[f[0]+" "+f[1]]++
	}
	for _, w := range bf.Workloads {
		for _, e := range bf.EndToEnd {
			if n := seen[w.Name+" "+e.Name]; n != 1 {
				t.Errorf("%s: end-to-end metric %s printed %d times, want 1", w.Name, e.Name, n)
			}
		}
		for _, p := range bf.PerLayer {
			if n := seen[w.Name+" "+p.Name]; n != 1 {
				t.Errorf("%s: per-layer metric %s printed %d times, want 1", w.Name, p.Name, n)
			}
		}
	}
	if want := len(bf.Workloads) * (len(bf.EndToEnd) + len(bf.PerLayer)); len(seen) != want {
		t.Errorf("printed %d distinct workload/metric pairs, BENCHMARK.json declares %d", len(seen), want)
	}

	// The last line is the result object.
	var res resultJSON
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, last)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}

	// Every trace parses, and every span's parent is in it.
	for _, w := range bf.Workloads {
		data, err := os.ReadFile(tracePath(filepath.Join(dir, "out"), w.Name))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatalf("%s trace: %v", w.Name, err)
		}
		if len(spans) == 0 {
			t.Errorf("%s trace is empty", w.Name)
		}
		ids := map[uint64]bool{}
		for _, s := range spans {
			ids[s.ID] = true
		}
		walWrites, orphans := 0, 0
		for _, s := range spans {
			if s.Name == "device.write_wal" {
				walWrites++
				if s.Parent == 0 {
					orphans++
				}
			}
			if s.Parent != 0 && !ids[s.Parent] {
				t.Errorf("%s: span %d (%s) has parent %d, which is not in the trace", w.Name, s.ID, s.Name, s.Parent)
			}
			if s.End < s.Start {
				t.Errorf("%s: span %d (%s) ends before it starts", w.Name, s.ID, s.Name)
			}
		}
		// A WAL write starts as an orphan only when tracing was switched
		// on in the middle of its insert; more means the WAL record
		// layout walRecordSensor reads has changed.
		if w.Name == "ingest_ooo" && (walWrites == 0 || orphans*10 > walWrites) {
			t.Errorf("%s: %d of %d WAL write spans found no insert above them", w.Name, orphans, walWrites)
		}
	}
}

// TestDeclarationsMatchBenchmarkJSON: the program and BENCHMARK.json
// must name the same workloads and metrics, with the same units.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, specs[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEndDecl) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bf.EndToEnd), len(endToEndDecl))
	}
	for i, e := range bf.EndToEnd {
		if d := endToEndDecl[i]; e.Name != d.name || e.Unit != d.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], program %s [%s]", i, e.Name, e.Unit, d.name, d.unit)
		}
	}
	if len(bf.PerLayer) != len(perLayerDecl) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bf.PerLayer), len(perLayerDecl))
	}
	for i, p := range bf.PerLayer {
		if d := perLayerDecl[i]; p.Name != d.name || p.Unit != d.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], program %s [%s]", i, p.Name, p.Unit, d.name, d.unit)
		}
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		tail float64
	}{
		{0, 99, 50}, {19, 99, 50}, {20, 99, 50}, // the median is the floor
		{100, 99, 90},    // 10 beyond p90, 5 beyond p95
		{199, 99, 90},    // 9.95 beyond p95
		{200, 99, 95},    // exactly 10 beyond p95
		{999, 99, 95},    // 9.99 beyond p99
		{1000, 99, 99},   // exactly 10 beyond p99
		{100000, 99, 99}, // never above what was asked for
		{100000, 99.9, 99.9},
		{9999, 99.9, 99},
	} {
		if got := supportedTail(c.n, c.want); got != c.tail {
			t.Errorf("supportedTail(%d, %g) = %g, want %g", c.n, c.want, got, c.tail)
		}
	}
}

// fakeClock only moves when slept on or advanced.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// TestOpenLoopChargesAStallToTheOpsBehindIt: op 2 stalls for 3.5
// intervals. The ops due meanwhile are sent late, back to back, and
// their latency counts from when they were due, not from when they
// were sent; once the backlog is gone the schedule is met again.
func TestOpenLoopChargesAStallToTheOpsBehindIt(t *testing.T) {
	const interval = 10 * time.Millisecond
	const service = time.Millisecond
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	var sentAt []time.Duration
	res := runOpenLoop(clk, interval, 8*interval, func(i int) {
		sentAt = append(sentAt, clk.now.Sub(start))
		if i == 2 {
			clk.Sleep(35 * time.Millisecond)
		} else {
			clk.Sleep(service)
		}
	})
	if len(res.latency) != 8 {
		t.Fatalf("ran %d ops, want 8: a stall must not drop ops", len(res.latency))
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	wantSent := []float64{0, 10, 20, 55, 56, 57, 60, 70}
	wantLate := []float64{0, 0, 0, 25, 16, 7, 0, 0}
	wantLat := []float64{1, 1, 35, 26, 17, 8, 1, 1}
	for i := range wantSent {
		if ms(sentAt[i]) != wantSent[i] || ms(res.lateness[i]) != wantLate[i] || ms(res.latency[i]) != wantLat[i] {
			t.Errorf("op %d: sent at %gms late %gms latency %gms, want %g %g %g",
				i, ms(sentAt[i]), ms(res.lateness[i]), ms(res.latency[i]), wantSent[i], wantLate[i], wantLat[i])
		}
	}
}

// TestModelAgainstOrderedMap checks the analytic model against the
// plain thing it stands for: a map from timestamp to the value of the
// newest write, built by applying the generated writes one by one.
func TestModelAgainstOrderedMap(t *testing.T) {
	const n, batch = 2000, 50
	st := newStream("lognormal-1-4", n, 3)
	s := &series{name: "s", st: st, inOrder: n, stride: 1}
	naive := map[int64]float64{}
	times := make([]int64, batch)
	scratch := make([]float64, batch)
	lowWater := s.lowWater(batch)
	for k := int64(0); k < 3*n+10*batch; k += batch { // prefix, one pass and part of the next
		vals := s.fill(k, times, scratch)
		for i, ts := range times {
			naive[ts] = vals[i]
		}
		s.acked = k + batch
		if k/batch%7 == 3 { // a rewrite now and then, of something long written
			rw := rewrite{t0: k / 3, n: 40, add: float64(len(s.rewrites) + 1)}
			for ts := rw.t0; ts < rw.t0+rw.n; ts++ {
				naive[ts] = s.tickValue(ts) + rw.add
			}
			s.rewrites = append(s.rewrites, rw)
		}

		var keys []int64
		for ts := range naive {
			keys = append(keys, ts)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		i := 0
		s.scan(-5, 4*n, s.now(), func(ts int64, v float64) {
			if i >= len(keys) || keys[i] != ts || naive[ts] != v {
				t.Fatalf("after %d arrivals: model yields (%d, %v) at position %d, the map disagrees", s.acked, ts, v, i)
			}
			i++
		})
		if i != len(keys) {
			t.Fatalf("after %d arrivals: model holds %d timestamps, the map %d", s.acked, i, len(keys))
		}
		// Nothing that arrives later may land below the low-water mark.
		lw := lowWater(s.acked)
		future := make([]int64, batch)
		for k2 := s.acked; k2 < s.acked+int64(n); k2 += batch {
			s.fill(k2, future, scratch)
			for _, ts := range future {
				if ts < lw {
					t.Fatalf("after %d arrivals the low-water mark is %d, but tick %d arrives later", s.acked, lw, ts)
				}
			}
		}
	}
}
