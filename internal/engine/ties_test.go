package engine

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/tsfile"
)

// tieWrite is one InsertBatch call.
type tieWrite struct {
	times  []int64
	values []float64
}

// tieCases are two ways one sensor gets several writes to the same
// timestamp inside one memtable: two single-point batches at t = 100,
// and one 200-point batch writing t = 1000..1099 with v = 1 and then
// the same timestamps again with v = 2.
func tieCases() map[string][]tieWrite {
	var ts []int64
	var vs []float64
	for pass := 1; pass <= 2; pass++ {
		for x := int64(1000); x < 1100; x++ {
			ts = append(ts, x)
			vs = append(vs, float64(pass))
		}
	}
	return map[string][]tieWrite{
		"two-batches": {{[]int64{100}, []float64{2}}, {[]int64{100}, []float64{3}}},
		"one-batch":   {{ts, vs}},
	}
}

// checkTies requires out to hold exactly one record per written
// timestamp, in strictly increasing time order, whose value is one of
// those written to it — and, when newest is set, the last one written.
func checkTies(t *testing.T, label string, writes []tieWrite, out []TV, newest bool) {
	t.Helper()
	written := map[int64][]float64{}
	for _, w := range writes {
		for i, x := range w.times {
			written[x] = append(written[x], w.values[i])
		}
	}
	if len(out) != len(written) {
		t.Fatalf("%s: %d records for %d timestamps", label, len(out), len(written))
	}
	for i, tv := range out {
		if i > 0 && tv.T <= out[i-1].T {
			t.Fatalf("%s: time %d after %d", label, tv.T, out[i-1].T)
		}
		vs := written[tv.T]
		if newest && tv.V != vs[len(vs)-1] {
			t.Fatalf("%s: t=%d reads %v, want the newest write %v", label, tv.T, tv.V, vs[len(vs)-1])
		}
		if !slices.Contains(vs, tv.V) {
			t.Fatalf("%s: t=%d reads %v, never written (wrote %v)", label, tv.T, tv.V, vs)
		}
	}
}

// TestEqualTimestampsInOneMemtable writes each tie case into one
// memtable and reads it back from the memtable, after Flush and after
// Compact. The serving profile returns the newest write at every
// timestamp; the paper profile and a non-backward algorithm, whose
// sorts are not stable, return exactly one written record per
// timestamp.
func TestEqualTimestampsInOneMemtable(t *testing.T) {
	profiles := []struct {
		name   string
		cfg    Config
		newest bool
	}{
		{"serving", Config{}, true},
		{"paper", Config{PaperProfile: true}, false},
		{"quick", Config{Algorithm: "quick"}, false},
	}
	for _, p := range profiles {
		for name, writes := range tieCases() {
			label := p.name + "/" + name
			cfg := p.cfg
			cfg.Dir = t.TempDir()
			e := openTest(t, cfg)
			for _, w := range writes {
				if err := e.InsertBatch("s", w.times, w.values); err != nil {
					t.Fatal(err)
				}
			}
			read := func(stage string) {
				t.Helper()
				out, err := e.Query("s", math.MinInt64, math.MaxInt64)
				if err != nil {
					t.Fatal(err)
				}
				checkTies(t, label+"/"+stage, writes, out, p.newest)
			}
			read("memtable")
			e.Flush()
			read("flush")
			// A second file in the partition, so Compact merges.
			if err := e.Insert("other", 0, 0); err != nil {
				t.Fatal(err)
			}
			e.Flush()
			if err := e.Compact(); err != nil {
				t.Fatal(err)
			}
			read("compact")
			checkStrictlyIncreasing(t, cfg.Dir)
		}
	}
}

// checkStrictlyIncreasing fails unless no chunk file is left at the
// root of dir and every chunk file under its p*/L*/ tree opens strict,
// with statistics on every chunk and each sensor's times strictly
// increasing through all its chunks, and returns how many files there
// are.
func checkStrictlyIncreasing(t *testing.T, dir string) int {
	t.Helper()
	if root, _ := filepath.Glob(filepath.Join(dir, "*.gtsf")); len(root) != 0 {
		t.Fatalf("chunk files left at the root: %v", root)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "p*", "L*", "*.gtsf"))
	for _, f := range files {
		r, err := tsfile.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Strict() {
			t.Fatalf("%s: not strict", f)
		}
		last := map[string]int64{}
		for _, m := range r.Index() {
			ts, _, err := r.ReadChunk(m)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range ts {
				if l, ok := last[m.Sensor]; (i > 0 || ok) && x <= l {
					t.Fatalf("%s: sensor %q repeats or reorders t=%d", f, m.Sensor, x)
				}
				last[m.Sensor] = x
			}
			if m.Stats == nil {
				t.Fatalf("%s: chunk %q has no statistics", f, m.Sensor)
			}
		}
		r.Close()
	}
	return len(files)
}

// checkServedStrict fails unless every file e serves is strict.
func checkServedStrict(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, fh := range e.files {
		if !fh.reader.Strict() {
			t.Fatalf("%s served non-strict", fh.path)
		}
	}
}

// plantFixture copies tsfile's testdata/name to path, creating its
// directory.
func plantFixture(t *testing.T, name, path string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "tsfile", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// parentAnswers is what each fixture older tsfile writers left
// answers, per sensor: the first record of each equal-timestamp run.
//   - testdata/v3dup.gtsf, from the last writer that accepted equal
//     timestamps: "a" with duplicate runs inside blocks, "b" with one
//     straddling its first block edge;
//   - testdata/v3edge.gtsf, from the last writer that let a chunk open
//     on its predecessor's last time: "c" with two such edges, "d"
//     with three chunks in a row holding only the timestamp the one
//     before ended on;
//   - testdata/v2.gtsf, the golden v2 file: "s" at t = i, v = i/2 for
//     i < 400 in four chunks, and "d" at (1, 5), (1, 6), (2, 7).
var parentAnswers = map[string]map[string][]TV{
	"v3dup.gtsf": {
		"a": {{0, 100}, {1, 101}, {2, 102}, {3, 103}, {4, 106}, {5, 107}, {6, 108},
			{7, 110}, {8, 111}, {9, 112}, {10, 113}, {11, 114}},
		"b": {{0, 200}, {2, 201}, {4, 202}, {6, 203}, {8, 206}, {10, 207},
			{12, 208}, {14, 209}, {16, 210}, {18, 211}},
	},
	"v3edge.gtsf": {
		"c": {{0, 300}, {2, 301}, {4, 302}, {6, 303}, {8, 304}, {10, 306},
			{12, 307}, {14, 308}, {16, 310}},
		"d": {{5, 400}, {7, 404}},
	},
	"v2.gtsf": {
		"s": func() []TV {
			var out []TV
			for i := int64(0); i < 400; i++ {
				out = append(out, TV{i, float64(i) * 0.5})
			}
			return out
		}(),
		"d": {{1, 5}, {2, 7}},
	},
}

// TestParentFileWithDuplicates plants each fixture of parentAnswers
// alone at p0/L0/. Open must upgrade it in place to one strict file,
// and Query and AggregateWindows (for every operator and several
// window sizes) must answer parentAnswers after Open, after Compact
// and across a reopen.
func TestParentFileWithDuplicates(t *testing.T) {
	for name, want := range parentAnswers {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			plantFixture(t, name, filepath.Join(dir, "p0", "L0", "seq-000001.gtsf"))
			cfg := Config{Dir: dir, blockPoints: 16}
			e := openTest(t, cfg)
			answers := func(stage string) {
				t.Helper()
				if n := checkStrictlyIncreasing(t, dir); n != 1 {
					t.Fatalf("%s: %d files, want 1", stage, n)
				}
				checkServedStrict(t, e)
				for sensor, w := range want {
					out, err := e.Query(sensor, math.MinInt64, math.MaxInt64)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(out, w) {
						t.Fatalf("%s: %s reads %v, want %v", stage, sensor, out, w)
					}
					for _, window := range []int64{1, 2, 3, 4, 5, 7, 20} {
						checkAllOps(t, e, sensor, 0, w[len(w)-1].T+1, window)
					}
				}
			}
			answers("open")
			if err := e.Compact(); err != nil {
				t.Fatal(err)
			}
			answers("compact")
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e = openTest(t, cfg)
			answers("reopen")
		})
	}
}
