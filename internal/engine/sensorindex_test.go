package engine

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/tsfile"
	"repro/internal/winagg"
)

// scanIndex is the reference for overlapping: a walk of the whole
// index.
func scanIndex(fh *fileHandle, sensor string, minT, maxT int64) []tsfile.ChunkMeta {
	var out []tsfile.ChunkMeta
	for _, m := range fh.index {
		if m.Sensor == sensor && m.MaxTime >= minT && m.MinTime <= maxT {
			out = append(out, m)
		}
	}
	return out
}

// checkSensorIndex opens the file at path and checks that fh.chunks
// lists every chunk once, under its sensor, in index order, and that
// overlapping equals scanIndex for every sensor in sensors and every
// range whose ends lie at, just inside or just outside a chunk edge.
func checkSensorIndex(t *testing.T, path string, sensors []string) {
	t.Helper()
	r, err := tsfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fh := newFileHandle(path, r, false)
	defer fh.release()

	n := 0
	for sensor, ps := range fh.chunks {
		for i, p := range ps {
			if fh.index[p].Sensor != sensor || (i > 0 && p <= ps[i-1]) {
				t.Fatalf("%s: positions %v of %q are not its chunks in index order", path, ps, sensor)
			}
		}
		n += len(ps)
	}
	if n != len(fh.index) {
		t.Fatalf("%s: sensor positions list %d chunks, index has %d", path, n, len(fh.index))
	}

	ends := []int64{math.MinInt64, math.MaxInt64}
	for _, m := range fh.index {
		for _, edge := range []int64{m.MinTime, m.MaxTime} {
			ends = append(ends, edge-1, edge, edge+1)
		}
	}
	sort.Slice(ends, func(a, b int) bool { return ends[a] < ends[b] })
	for _, sensor := range sensors {
		for i, lo := range ends {
			for _, hi := range ends[i:] {
				got := overlapping(fh, sensor, lo, hi)
				if want := scanIndex(fh, sensor, lo, hi); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: overlapping(%q, %d, %d) = %d chunks, the index scan %d",
						path, sensor, lo, hi, len(got), len(want))
				}
			}
		}
	}
}

// TestOverlappingMatchesIndexScan: the per-sensor chunk positions a
// file handle builds at open answer exactly what a walk of the whole
// index does, in the same order — over files whose chunks of one
// sensor are interleaved with other sensors' (A, B, A, C, A), and for
// sensors the file does not hold.
func TestOverlappingMatchesIndexScan(t *testing.T) {
	dir := t.TempDir()
	f := func(x int64) float64 { return float64(x) }
	path := filepath.Join(dir, "interleaved.gtsf")
	writeRuns(t, path,
		chunkRun{"a", span(0, 10), f},
		chunkRun{"b", span(-50, 100), f},
		chunkRun{"a", span(20, 30), f},
		chunkRun{"c", span(5, 6), f},
		chunkRun{"a", span(40, 50), f},
	)
	checkSensorIndex(t, path, []string{"a", "b", "c", "absent", ""})

	// Random layouts: each file holds a random interleaving of up to
	// 12 chunks of three sensors, each sensor's chunks in time order
	// with random gaps; "d" is never written.
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 20; k++ {
		next := map[string]int64{}
		var runs []chunkRun
		for c := 1 + rng.Intn(12); c > 0; c-- {
			s := string(rune('a' + rng.Intn(3)))
			lo := next[s] + rng.Int63n(20)
			hi := lo + 1 + rng.Int63n(30)
			next[s] = hi
			runs = append(runs, chunkRun{s, span(lo, hi), f})
		}
		path := filepath.Join(dir, fmt.Sprintf("random-%02d.gtsf", k))
		writeRuns(t, path, runs...)
		checkSensorIndex(t, path, []string{"a", "b", "c", "d"})
	}
}

// BenchmarkAggregateWideFile times the per-series cost of a selector
// fan-out over wide files: 500 sparse series (512 points each, one
// every 250 ticks) in 8 partitions of 16 000 ticks, compacted to one
// file per partition, then 100 of them aggregated over 64 000 ticks in
// windows of 4 000. Each file holds every series, so a lookup that
// walks the whole index pays for the 400 series the fan-out does not
// select. It reports ns and allocs per series.
func BenchmarkAggregateWideFile(b *testing.B) {
	const (
		sensors  = 500
		points   = 512
		stride   = 250
		selected = 100
		start    = 32_000
		end      = start + 64_000
		window   = 4_000
	)
	e, err := Open(Config{Dir: b.TempDir(), PartitionDuration: 16_000, SyncFlush: true})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	names := make([]string, sensors)
	times := make([]int64, points)
	vals := make([]float64, points)
	for i := range names {
		names[i] = fmt.Sprintf("host=h%04d,region=r%d", i, i%4)
		for j := range times {
			times[j], vals[j] = int64(j)*stride, float64(i+j%64)
		}
		if err := e.InsertBatch(names[i], times, vals); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Compact(); err != nil {
		b.Fatal(err)
	}
	if got := e.FileCount(); got != 8 {
		b.Fatalf("store holds %d files, want one per partition (8)", got)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range names[:selected] {
			ws, err := e.AggregateWindows(name, start, end, window, winagg.Avg)
			if err != nil {
				b.Fatal(err)
			}
			if len(ws) != (end-start)/window {
				b.Fatalf("%s: %d windows, want %d", name, len(ws), (end-start)/window)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perSeries := float64(b.N * selected)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perSeries, "ns/series")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perSeries, "allocs/series")
}

// TestFileHandleSharesIndex: a file handle reads the reader's own
// index rather than a copy of it, so an open file holds its chunk
// metadata once, and sizes its per-sensor position map by the sensors
// the index holds, not by its chunks. Over 500 chunks (88-byte
// ChunkMeta each) a handle allocated about 103 KB while it copied the
// index into a map sized for 500 sensors, for one sensor's chunks and
// for 500 sensors' alike; what is left is the position map. Its
// position lists share one array, so a handle's allocations do not
// grow with its sensors: a position slice per sensor cost a 500-sensor
// handle 507 allocations.
func TestFileHandleSharesIndex(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations inflate allocated bytes")
	}
	const chunks = 500
	f := func(x int64) float64 { return float64(x) }
	for _, tc := range []struct {
		name  string
		run   func(i int) chunkRun
		bound int64
	}{
		{"one sensor", func(i int) chunkRun { return chunkRun{"s", span(int64(i)*4, int64(i)*4+4), f} }, 49_500 / 2},
		{"a sensor a chunk", func(i int) chunkRun { return chunkRun{fmt.Sprintf("s%03d", i), span(0, 4), f} }, 80_000},
	} {
		const maxAllocs = 16
		runs := make([]chunkRun, chunks)
		for i := range runs {
			runs[i] = tc.run(i)
		}
		path := filepath.Join(t.TempDir(), "wide.gtsf")
		writeRuns(t, path, runs...)
		r, err := tsfile.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if fh := newFileHandle(path, r, false); len(fh.index) != chunks || &fh.index[0] != &r.SharedIndex()[0] {
			t.Fatalf("%s: handle index of %d chunks, shares the reader's: %v",
				tc.name, len(fh.index), &fh.index[0] == &r.SharedIndex()[0])
		}
		// Bytes per handle, the least of three rounds, so allocations
		// elsewhere in the process during one round do not count.
		perHandle := func() int64 {
			const n = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				newFileHandle(path, r, false)
			}
			runtime.ReadMemStats(&after)
			return int64(after.TotalAlloc-before.TotalAlloc) / n
		}
		if got := min(perHandle(), perHandle(), perHandle()); got >= tc.bound {
			t.Fatalf("%s: a %d-chunk file handle allocates %d bytes, want under %d", tc.name, chunks, got, tc.bound)
		}
		if got := testing.AllocsPerRun(20, func() { newFileHandle(path, r, false) }); got > maxAllocs {
			t.Fatalf("%s: a %d-chunk file handle makes %v allocations, want at most %d", tc.name, chunks, got, maxAllocs)
		}
	}
}
