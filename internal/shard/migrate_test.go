package shard

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/tsfile"
	"repro/internal/winagg"
)

// plantFlatShard writes into dir the chunk files a flat-layout shard
// kept at its root: tsfile's golden v2 file (sensor "s" at t = i,
// v = i/2 for i < 400, and sensor "d"), a sequence file extending "s"
// to t = 599 and adding sensor "x", and a newer unsequence file
// rewriting t = 100..149 of "s" to 1000 + t.
func plantFlatShard(t *testing.T, dir string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join("..", "tsfile", "testdata", "v2.gtsf"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seq-000001.gtsf"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, chunks map[string][3]int64) {
		w, err := tsfile.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, sensor := range []string{"s", "x"} {
			c, ok := chunks[sensor] // lo, hi, value offset
			if !ok {
				continue
			}
			var ts []int64
			var vs []float64
			for x := c[0]; x < c[1]; x++ {
				ts = append(ts, x)
				vs = append(vs, float64(c[2]+x))
			}
			if err := w.WriteChunk(sensor, ts, vs); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write("seq-000002.gtsf", map[string][3]int64{"s": {400, 600, 0}, "x": {0, 300, -1000}})
	write("unseq-000003.gtsf", map[string][3]int64{"s": {100, 150, 1000}})
}

// routerAnswers renders every sensor of the planted store in full, and
// the window aggregates of "s".
func routerAnswers(t *testing.T, r *Router) string {
	t.Helper()
	var b strings.Builder
	for _, s := range []string{"s", "d", "x"} {
		out, err := r.Query(s, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&b, s, out)
	}
	for op := winagg.Count; op <= winagg.Last; op++ {
		w, err := r.AggregateWindows("s", 0, 700, 64, op)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&b, op, w)
	}
	return b.String()
}

// TestRouterFoldsFlatShards opens a two-shard store whose shard
// directories the flat layout wrote (chunk files at each shard's
// root). Every shard folds its root into partitions at Open; the store
// answers what the same files answer unfolded, later writes win over
// the folded history, and everything survives a reopen.
func TestRouterFoldsFlatShards(t *testing.T) {
	const shards = 2
	cfg := func(dir string) Config {
		return Config{Config: engine.Config{Dir: dir, MemTableSize: 50, SyncFlush: true}, ShardCount: shards}
	}
	refDir, dir := t.TempDir(), t.TempDir()
	for i := 0; i < shards; i++ {
		plantFlatShard(t, filepath.Join(refDir, fmt.Sprintf(shardDirFmt, i), "p0", "L0"))
		plantFlatShard(t, filepath.Join(dir, fmt.Sprintf(shardDirFmt, i)))
	}
	ref, err := Open(cfg(refDir))
	if err != nil {
		t.Fatal(err)
	}
	want := routerAnswers(t, ref)
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	checkFolded := func() {
		t.Helper()
		root, _ := filepath.Glob(filepath.Join(dir, "shard-*", "*.gtsf"))
		leveled, _ := filepath.Glob(filepath.Join(dir, "shard-*", "p*", "L*", "*.gtsf"))
		if len(root) != 0 || len(leveled) == 0 {
			t.Fatalf("shard roots hold %v; %d files under p*/L*/", root, len(leveled))
		}
	}
	r, err := Open(cfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { r.Close() }()
	checkFolded()
	if got := routerAnswers(t, r); got != want {
		t.Fatalf("folded store answers\n%s\nwant\n%s", got, want)
	}

	// Newer writes win over the folded history on every sensor's shard.
	for _, s := range []string{"s", "x"} {
		if err := r.InsertBatch(s, []int64{120, 250}, []float64{-7, -8}); err != nil {
			t.Fatal(err)
		}
	}
	r.Flush()
	for _, s := range []string{"s", "x"} {
		out, err := r.Query(s, 120, 250)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 131 || out[0].V != -7 || out[130].V != -8 {
			t.Fatalf("%s over [120, 250]: %d points; want 131, from -7 to -8", s, len(out))
		}
		if s == "s" && out[1].V != 1121 {
			t.Fatalf("s@121 = %v, want the folded unsequence rewrite 1121", out[1].V)
		}
	}
	after := routerAnswers(t, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r, err = Open(cfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	checkFolded()
	if got := routerAnswers(t, r); got != after {
		t.Fatalf("answers changed across reopen:\n%s\nwant\n%s", got, after)
	}
}
