package engine

import (
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/tsfile"
	"repro/internal/winagg"
)

// chunkRun is one sensor's points at times with value f(t).
type chunkRun struct {
	sensor string
	times  []int64
	f      func(int64) float64
}

// span returns the times lo, lo+1, ..., hi-1.
func span(lo, hi int64) []int64 {
	var ts []int64
	for x := lo; x < hi; x++ {
		ts = append(ts, x)
	}
	return ts
}

// writeRuns writes one chunk file at path, a chunk per run.
func writeRuns(t *testing.T, path string, runs ...chunkRun) {
	t.Helper()
	w, err := tsfile.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		vs := make([]float64, len(r.times))
		for i, x := range r.times {
			vs[i] = r.f(x)
		}
		if err := w.WriteChunk(r.sensor, r.times, vs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// plantFlatStore writes into dir the chunk files a flat-layout store
// kept at its root: the golden v2 file (sensor "s" at t = i, v = i/2
// for i < 400, and sensor "d" with a duplicate timestamp), a sequence
// file extending "s" to t = 599 and adding sensor "x" and a sensor
// "far" whose one chunk spans 2^62 ticks, and a newer unsequence file
// rewriting t = 100..149 of "s" to 1000 + t.
func plantFlatStore(t *testing.T, dir string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	plantFixture(t, "v2.gtsf", filepath.Join(dir, "seq-000001.gtsf"))
	writeRuns(t, filepath.Join(dir, "seq-000002.gtsf"),
		chunkRun{"far", []int64{0, 1 << 62}, func(x int64) float64 { return 1 }},
		chunkRun{"s", span(400, 600), func(x int64) float64 { return float64(x) * 0.5 }},
		chunkRun{"x", span(0, 300), func(x int64) float64 { return -float64(x) }})
	writeRuns(t, filepath.Join(dir, "unseq-000003.gtsf"),
		chunkRun{"s", span(100, 150), func(x int64) float64 { return 1000 + float64(x) }})
}

// flatAnswers renders everything the planted store answers: every
// sensor in full and every window aggregate of "s".
func flatAnswers(t *testing.T, e *Engine) string {
	t.Helper()
	var b strings.Builder
	for _, s := range []string{"s", "d", "x", "far"} {
		out, err := e.Query(s, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&b, s, out)
	}
	for op := winagg.Count; op <= winagg.Last; op++ {
		w, err := e.AggregateWindows("s", 0, 700, 64, op)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&b, op, w)
	}
	return b.String()
}

// refAnswers is what the planted store answers with its files served
// as they are, unfolded: the same files as the generations of one
// partition's L0.
func refAnswers(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	plantFlatStore(t, filepath.Join(dir, "p0", "L0"))
	return flatAnswers(t, openTest(t, Config{Dir: dir}))
}

// checkFolded fails if a chunk file is left at the root of dir or an
// unquarantined temporary anywhere under it.
func checkFolded(t *testing.T, dir string) {
	t.Helper()
	if root, _ := filepath.Glob(filepath.Join(dir, "*.gtsf")); len(root) != 0 {
		t.Fatalf("chunk files left at the root: %v", root)
	}
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".tmp") {
			t.Fatalf("%s survived recovery unquarantined", path)
		}
		return err
	})
}

func valueAt(t *testing.T, e *Engine, sensor string, ts int64) float64 {
	t.Helper()
	out, err := e.Query(sensor, ts, ts)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("%s@%d: %d points", sensor, ts, len(out))
	}
	return out[0].V
}

// TestFoldFlatStoreAtOpen opens a store the flat layout wrote —
// root-level sequence and unsequence files, one of them v2 — at the
// default partition width and at one that splits "s" three ways. Open
// must fold the root into the partitions its points occupy (not every
// partition a chunk's range spans: "far" occupies two of 2^62/width),
// answer exactly what the unfolded files answer, let later writes win
// over the folded history, and keep all of it across a reopen.
func TestFoldFlatStoreAtOpen(t *testing.T) {
	want := refAnswers(t)
	for _, tc := range []struct {
		width int64
		parts int
	}{{0, 2}, {250, 4}} {
		t.Run(fmt.Sprint(tc.width), func(t *testing.T) {
			dir := t.TempDir()
			plantFlatStore(t, dir)
			cfg := Config{Dir: dir, MemTableSize: 50, SyncFlush: true, PartitionDuration: tc.width}
			e, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { e.Close() }()
			checkFolded(t, dir)
			checkStrictlyIncreasing(t, dir)
			if got := e.Stats().PartitionsActive; got != tc.parts {
				t.Fatalf("PartitionsActive = %d, want %d", got, tc.parts)
			}
			if got := flatAnswers(t, e); got != want {
				t.Fatalf("folded store answers\n%s\nwant\n%s", got, want)
			}
			if v := valueAt(t, e, "s", 120); v != 1120 {
				t.Fatalf("s@120 = %v, want the unsequence rewrite 1120", v)
			}

			// Newer writes win over the folded history.
			if err := e.InsertBatch("s", []int64{120, 500}, []float64{-7, -8}); err != nil {
				t.Fatal(err)
			}
			e.Flush()
			for ts, v := range map[int64]float64{120: -7, 500: -8, 121: 1121, 501: 250.5} {
				if got := valueAt(t, e, "s", ts); got != v {
					t.Fatalf("s@%d = %v, want %v", ts, got, v)
				}
			}
			after := flatAnswers(t, e)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e, err = Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkFolded(t, dir)
			if got := flatAnswers(t, e); got != after {
				t.Fatalf("answers changed across reopen:\n%s\nwant\n%s", got, after)
			}
		})
	}
}

// TestFoldQuarantinesCorruptFile plants the flat store with a flipped
// byte inside a block of its sequence file — damage the index check at
// recovery does not see. Open must quarantine that file instead of
// failing the fold, and answer what the rest of the store answers.
func TestFoldQuarantinesCorruptFile(t *testing.T) {
	ref := t.TempDir()
	plantFlatStore(t, ref)
	if err := os.Remove(filepath.Join(ref, "seq-000002.gtsf")); err != nil {
		t.Fatal(err)
	}
	want := flatAnswers(t, openTest(t, Config{Dir: ref}))

	dir := t.TempDir()
	plantFlatStore(t, dir)
	bad := filepath.Join(dir, "seq-000002.gtsf")
	r, err := tsfile.Open(bad)
	if err != nil {
		t.Fatal(err)
	}
	b := r.Index()[1].Blocks[0]
	r.Close()
	raw, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	raw[b.Offset+b.Size/2] ^= 0xff
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e := openTest(t, Config{Dir: dir})
	checkFolded(t, dir)
	if got := e.Stats().QuarantinedFiles; got != 1 {
		t.Fatalf("QuarantinedFiles = %d, want 1", got)
	}
	if _, err := os.Stat(bad + quarantineSuffix); err != nil {
		t.Fatal(err)
	}
	if got := flatAnswers(t, e); got != want {
		t.Fatalf("store answers\n%s\nwant\n%s", got, want)
	}
}

// TestFoldCrashMatrix kills the Open-time fold of a flat-layout store
// at every filesystem operation. Whatever survived must reopen, fold,
// and answer exactly what the unfolded files answer.
func TestFoldCrashMatrix(t *testing.T) {
	want := refAnswers(t)
	for k := 1; ; k++ {
		dir := t.TempDir()
		plantFlatStore(t, dir)
		inj := faultfs.NewInjector(faultfs.OS, k)
		cfg := crashCfg(dir, inj)
		cfg.PartitionDuration = 250
		e, err := Open(cfg)
		if err == nil {
			e.Close()
		}
		if !inj.Crashed() {
			if err != nil {
				t.Fatalf("k=%d: open without a crash: %v", k, err)
			}
			t.Logf("matrix complete: %d injection points swept", k-1)
			return
		}
		cfg.FS = faultfs.OS
		re, err := Open(cfg)
		if err != nil {
			t.Fatalf("k=%d: recovery open: %v", k, err)
		}
		checkFolded(t, dir)
		if got := flatAnswers(t, re); got != want {
			t.Fatalf("k=%d: recovered store answers\n%s\nwant\n%s", k, got, want)
		}
		if err := re.Close(); err != nil {
			t.Fatalf("k=%d: close after recovery: %v", k, err)
		}
		if k > 10000 {
			t.Fatal("matrix did not terminate; injector never exhausted")
		}
	}
}

// TestPartitionEdgesKeepData puts two flushes in the first and in the
// last partition of the int64 range. Their bounds must clamp instead
// of wrapping: a full Compact keeps both points, and a retention drop
// at a cutoff before them removes neither.
func TestPartitionEdgesKeepData(t *testing.T) {
	for _, d := range []int64{DefaultPartitionDuration, 1000} {
		for _, edge := range []int64{math.MaxInt64 - 5, math.MinInt64 + 5} {
			t.Run(fmt.Sprintf("%d/%d", d, edge), func(t *testing.T) {
				e := openTest(t, Config{PartitionDuration: d})
				for i, ts := range []int64{edge, edge + 1} {
					if err := e.Insert("s", ts, float64(i)); err != nil {
						t.Fatal(err)
					}
					e.Flush()
				}
				count := func(stage string) {
					t.Helper()
					out, err := e.Query("s", math.MinInt64, math.MaxInt64)
					if err != nil {
						t.Fatal(err)
					}
					if len(out) != 2 {
						t.Fatalf("after %s: %d of 2 points", stage, len(out))
					}
				}
				if err := e.Compact(); err != nil {
					t.Fatal(err)
				}
				count("Compact")
				if _, err := e.DropPartitionsBefore(min(edge, 0)); err != nil {
					t.Fatal(err)
				}
				count("DropPartitionsBefore")
			})
		}
	}
}

// TestDefaultLayoutBoundsFileCount is the small-flush probe: 200
// in-order flushes of 100 points at the default configuration leave at
// most one file per four flushes, while the paper profile runs no
// automatic pass and keeps every flush's file.
func TestDefaultLayoutBoundsFileCount(t *testing.T) {
	for _, paper := range []bool{false, true} {
		e := openTest(t, Config{MemTableSize: 100, PaperProfile: paper})
		times := make([]int64, 100)
		values := make([]float64, 100)
		for f := 0; f < 200; f++ {
			for i := range times {
				times[i] = int64(f*100 + i)
			}
			if err := e.InsertBatch("s", times, values); err != nil {
				t.Fatal(err)
			}
		}
		st := e.Stats()
		if paper {
			if st.CompactionPasses != 0 || st.Files != 200 {
				t.Fatalf("paper profile: %d passes, %d files; want 0 and 200", st.CompactionPasses, st.Files)
			}
			continue
		}
		if st.CompactionPasses == 0 || st.Files > 50 {
			t.Fatalf("default: %d passes, %d files; want > 0 and <= 50", st.CompactionPasses, st.Files)
		}
	}
}

// TestQuerySnapshotsFilesInRange: a query pins only the files whose
// time bounds meet its range, so a narrow query over many partitions
// neither holds every file nor scans every file's index, and still
// answers from each file it needs.
func TestQuerySnapshotsFilesInRange(t *testing.T) {
	e := openTest(t, Config{PartitionDuration: 100})
	for _, ts := range []int64{10, 150, 250, -40} {
		if err := e.Insert("s", ts, float64(ts)); err != nil {
			t.Fatal(err)
		}
		e.Flush()
	}
	for _, c := range []struct {
		minT, maxT int64
		files      int
	}{{140, 160, 1}, {0, 199, 2}, {-50, -1, 1}, {300, 400, 0}, {math.MinInt64, math.MaxInt64, 4}} {
		qs, err := e.gatherSources("s", c.minT, c.maxT)
		if err != nil {
			t.Fatal(err)
		}
		n := len(qs.files)
		qs.release()
		out, err := e.Query("s", c.minT, c.maxT)
		if err != nil {
			t.Fatal(err)
		}
		if n != c.files || len(out) != c.files {
			t.Fatalf("[%d, %d]: snapshotted %d files and read %d points, want %d of each", c.minT, c.maxT, n, len(out), c.files)
		}
	}
}
