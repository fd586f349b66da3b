package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/winagg"
)

func TestQueryBoundsInclusive(t *testing.T) {
	e := openTest(t, Config{})
	for i := 1; i <= 5; i++ {
		e.Insert("s", int64(i*10), float64(i))
	}
	cases := []struct {
		min, max int64
		want     int
	}{
		{10, 50, 5},  // exact bounds inclusive
		{11, 49, 3},  // strict interior
		{50, 50, 1},  // single point
		{51, 100, 0}, // past the end
		{-5, 9, 0},   // before the start
		{30, 10, 0},  // inverted
	}
	for _, c := range cases {
		out, err := e.Query("s", c.min, c.max)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != c.want {
			t.Fatalf("[%d,%d]: got %d points, want %d", c.min, c.max, len(out), c.want)
		}
	}
}

func TestQueryAfterManyGenerations(t *testing.T) {
	// Dozens of small generations: the k-way assembly across many
	// files must stay sorted and complete.
	e := openTest(t, Config{MemTableSize: 50})
	s := dataset.LogNormal(2000, 1, 1, 12)
	for i := range s.Times {
		if err := e.Insert("s", s.Times[i], s.Values[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.FlushCount < 30 {
		t.Fatalf("expected many generations, got %d flushes", st.FlushCount)
	}
	out, err := e.Query("s", -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2000 {
		t.Fatalf("got %d of 2000", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].T > out[i].T {
			t.Fatal("unsorted across generations")
		}
	}
}

func TestStatsSnapshotIndependentOfQueries(t *testing.T) {
	e := openTest(t, Config{MemTableSize: 10})
	for i := 0; i < 25; i++ {
		e.Insert("s", int64(i), 0)
	}
	before := e.Stats()
	for i := 0; i < 5; i++ {
		if _, err := e.Query("s", 0, 100); err != nil {
			t.Fatal(err)
		}
	}
	after := e.Stats()
	if after.FlushCount != before.FlushCount || after.SeqPoints != before.SeqPoints {
		t.Fatalf("queries mutated write stats: %+v vs %+v", before, after)
	}
}

// TestFileSourceAllocsIndependentOfBlocks: a file source decodes its
// blocks into one scratch set it reuses, so a Query's allocations do
// not grow by a fixed count per block decoded. Over one compacted file,
// a sensor of 32 blocks costs fewer extra allocations than it has extra
// blocks over a sensor of 4; the result column's growth is the rest.
func TestFileSourceAllocsIndependentOfBlocks(t *testing.T) {
	e := openTest(t, Config{MemTableSize: 1 << 20, blockPoints: 64})
	sensors := map[string]int{"few": 4, "many": 32}
	for sensor, blocks := range sensors {
		for ts := int64(0); ts < int64(blocks*64); ts++ {
			if err := e.Insert(sensor, ts, float64(ts%7)/4); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Flush()
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.FileCount() != 1 {
		t.Fatalf("store holds %d files, want 1", e.FileCount())
	}
	allocs := map[string]float64{}
	for sensor, blocks := range sensors {
		before := e.Stats().BlocksDecoded
		var err error
		allocs[sensor] = testing.AllocsPerRun(10, func() {
			_, err = e.Query(sensor, math.MinInt64, math.MaxInt64)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := (e.Stats().BlocksDecoded - before) / 11; got != int64(blocks) {
			t.Fatalf("%s: a query decodes %d blocks, want %d", sensor, got, blocks)
		}
	}
	if extra := allocs["many"] - allocs["few"]; extra >= 32-4 {
		t.Fatalf("28 more blocks cost %v more allocations (%v vs %v)", extra, allocs["many"], allocs["few"])
	}
}

// TestReadCountersPinned pins the read-amplification counters one
// Query and one AggregateWindows move on a fixed store — two
// overlapping files plus a dirty memtable — and checks Compact moves
// none of them. The perf ledger's "blocks decoded per query" reads
// these counters, so a change in how they count must be deliberate.
func TestReadCountersPinned(t *testing.T) {
	e := openTest(t, Config{MemTableSize: 1 << 20, blockPoints: 64, l0CompactFiles: 100})
	rng := rand.New(rand.NewSource(7))
	put := func(ts int64) {
		if err := e.Insert("s", ts, float64(rng.Intn(1000))/8); err != nil {
			t.Fatal(err)
		}
	}
	for ts := int64(0); ts < 1000; ts++ {
		put(ts)
	}
	e.Flush()
	for ts := int64(300); ts <= 700; ts += 3 { // rewrites: an unsequence file
		put(ts)
	}
	e.Flush()
	for _, ts := range rng.Perm(200) { // dirty memtable straddling the watermark
		put(int64(900 + ts))
	}
	if e.FileCount() != 2 {
		t.Fatalf("store holds %d files, want 2", e.FileCount())
	}
	type reads struct{ decoded, skipped, chunks, fromStats, bytes int64 }
	read := func() reads {
		s := e.Stats()
		return reads{s.BlocksDecoded, s.BlocksSkipped, s.ChunksDecoded, s.BlocksFromStats, s.BytesRead}
	}
	delta := func(a, b reads) reads {
		return reads{b.decoded - a.decoded, b.skipped - a.skipped, b.chunks - a.chunks, b.fromStats - a.fromStats, b.bytes - a.bytes}
	}
	r0 := read()
	if _, err := e.Query("s", 100, 1200); err != nil {
		t.Fatal(err)
	}
	r1 := read()
	// Block [0, 63] of the first file misses the range; its other 15
	// blocks and the unsequence file's 3 are decoded.
	if got, want := delta(r0, r1), (reads{decoded: 18, skipped: 1, chunks: 2, bytes: 3543}); got != want {
		t.Fatalf("Query read %+v, want %+v", got, want)
	}
	if _, err := e.AggregateWindows("s", 0, 1500, 64, winagg.Avg); err != nil {
		t.Fatal(err)
	}
	r2 := read()
	if got, want := delta(r1, r2), (reads{decoded: 12, chunks: 2, fromStats: 7, bytes: 2290}); got != want {
		t.Fatalf("AggregateWindows read %+v, want %+v", got, want)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if r3 := read(); r3 != r2 {
		t.Fatalf("Compact moved the read counters: %+v -> %+v", r2, r3)
	}
}
