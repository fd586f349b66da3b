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

// checkStrictlyIncreasing fails unless every chunk of every chunk file
// under dir has strictly increasing timestamps and statistics.
func checkStrictlyIncreasing(t *testing.T, dir string) {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(dir, "p*", "L*", "*.gtsf"))
	if len(files) == 0 {
		t.Fatal("no chunk files")
	}
	for _, f := range files {
		r, err := tsfile.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range r.Index() {
			ts, _, err := r.ReadChunk(m)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(ts); i++ {
				if ts[i] <= ts[i-1] {
					t.Fatalf("%s: chunk %q repeats or reorders t=%d", f, m.Sensor, ts[i])
				}
			}
			if m.Stats == nil {
				t.Fatalf("%s: chunk %q has no statistics", f, m.Sensor)
			}
		}
		r.Close()
	}
}

// TestParentFileWithDuplicates serves testdata/v3dup.gtsf (see
// tsfile's TestV3ParentDuplicatesReadable), written when the tsfile
// writer still accepted equal timestamps: sensor "a" with duplicate
// runs inside blocks, sensor "b" with a run straddling a block
// boundary. Query returns one record per timestamp, the first of its
// run, as such files have always answered; AggregateWindows matches
// the decoded answer for every operator and several window sizes, so
// no statistics-free or straddled span is answered from metadata; and
// Compact rewrites the lone file into strictly increasing chunks
// without changing an answer.
func TestParentFileWithDuplicates(t *testing.T) {
	dir := t.TempDir()
	l0 := filepath.Join(dir, "p0", "L0")
	if err := os.MkdirAll(l0, 0o755); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("..", "tsfile", "testdata", "v3dup.gtsf"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(l0, "seq-000001.gtsf"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	e := openTest(t, Config{Dir: dir})
	want := map[string][]TV{
		"a": {{0, 100}, {1, 101}, {2, 102}, {3, 103}, {4, 106}, {5, 107}, {6, 108},
			{7, 110}, {8, 111}, {9, 112}, {10, 113}, {11, 114}},
		"b": {{0, 200}, {2, 201}, {4, 202}, {6, 203}, {8, 206}, {10, 207},
			{12, 208}, {14, 209}, {16, 210}, {18, 211}},
	}
	answers := func(stage string) {
		t.Helper()
		for sensor, w := range want {
			out, err := e.Query(sensor, math.MinInt64, math.MaxInt64)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(out, w) {
				t.Fatalf("%s: %s reads %v, want %v", stage, sensor, out, w)
			}
			for _, window := range []int64{1, 2, 3, 4, 5, 7, 20} {
				checkAllOps(t, e, sensor, 0, 20, window)
			}
		}
	}
	answers("open")
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	checkStrictlyIncreasing(t, dir)
	answers("compact")
}
