package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/delay"
	"repro/internal/tsfile"
	"repro/internal/winagg"
)

// TestBlockIndexMatchesLegacyOracle ingests identical workloads —
// random delay scenarios plus cross-generation overwrites of
// already-flushed ranges — into an engine with 32-point blocks and an
// oracle engine whose blocks are as large as its memtable (one block
// per chunk), and requires bit-identical answers from Query and
// AggregateWindows while the small-block engine demonstrably exercises
// its block index.
func TestBlockIndexMatchesLegacyOracle(t *testing.T) {
	dists := []delay.Distribution{
		delay.Constant{C: 0}, // fully in order: maximal block pruning
		delay.DiscreteUniform{K: 8},
		delay.LogNormal{Mu: 1, Sigma: 1},
	}
	for di, dist := range dists {
		dist := dist
		t.Run(dist.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(4200 + di)))
			blocked := openTest(t, Config{MemTableSize: 256, blockPoints: 32})
			oracle := openTest(t, Config{MemTableSize: 256, blockPoints: 256})
			const n = 3000
			insert := func(ts int64, v float64) {
				t.Helper()
				if err := blocked.Insert("s", ts, v); err != nil {
					t.Fatal(err)
				}
				if err := oracle.Insert("s", ts, v); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				ts := int64(i) - int64(dist.Sample(rng))
				insert(ts, float64(ts%173)+0.5)
			}
			// Cross-generation overwrites: newer files rewriting slices
			// of old ranges must win in both engines, and must also
			// disqualify the shadowed older blocks from stats answers.
			for i := 0; i < 150; i++ {
				insert(int64(rng.Intn(n/2)), -2000-float64(i))
			}
			blocked.Flush()
			oracle.Flush()

			check := func(lo, hi int64) {
				t.Helper()
				got, err := blocked.Query("s", lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracle.Query("s", lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("[%d,%d]: blocked %d points, oracle %d points", lo, hi, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("[%d,%d] record %d: blocked %+v, oracle %+v", lo, hi, i, got[i], want[i])
					}
				}
			}
			check(-64, n+64)
			for q := 0; q < 60; q++ {
				lo := int64(rng.Intn(n)) - 32
				check(lo, lo+int64(rng.Intn(200)))
			}
			for q := 0; q < 25; q++ {
				startT := int64(rng.Intn(n)) - 16
				endT := startT + int64(1+rng.Intn(n/2))
				window := int64(1 + rng.Intn(250))
				for op := winagg.Count; op <= winagg.Last; op++ {
					got, err := blocked.AggregateWindows("s", startT, endT, window, op)
					if err != nil {
						t.Fatal(err)
					}
					want, err := oracle.AggregateWindows("s", startT, endT, window, op)
					if err != nil {
						t.Fatal(err)
					}
					if !sameWindows(got, want) {
						t.Fatalf("%v [%d,%d) w=%d: blocked %v, oracle %v", op, startT, endT, window, got, want)
					}
				}
			}
			if st := blocked.Stats(); st.BlocksDecoded+st.BlocksFromStats == 0 || st.BlocksSkipped == 0 {
				t.Fatalf("blocked engine never exercised the block index: %+v", st)
			}
		})
	}
}

// TestBlockIndexCutsReadAmplification: a narrow range read seeks to
// the blocks it overlaps, where a chunk stored as one block decodes
// whole. The same 128 narrow queries over the same in-order store must
// return the same points and read at least 10x fewer bytes with
// 128-point blocks than with one block per 4096-point chunk.
func TestBlockIndexCutsReadAmplification(t *testing.T) {
	const (
		chunkPts = 4096 // memtable size: one chunk per flush
		files    = 16
		total    = chunkPts * files
		queries  = 128
		width    = 40 // ~1% of a chunk's time span
	)
	build := func(blockPoints int) *Engine {
		e := openTest(t, Config{MemTableSize: chunkPts, blockPoints: blockPoints})
		times := make([]int64, chunkPts)
		values := make([]float64, chunkPts)
		for f := 0; f < files; f++ {
			for i := range times {
				times[i] = int64(f*chunkPts + i)
				values[i] = float64(times[i]%911) * 0.5
			}
			if err := e.InsertBatch("s", times, values); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	read := func(e *Engine) (bytes int64, out []TV) {
		before := e.Stats().BytesRead
		for q := int64(0); q < queries; q++ {
			lo := q * (total / queries)
			pts, err := e.Query("s", lo, lo+width-1)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, pts...)
		}
		return e.Stats().BytesRead - before, out
	}
	wholeBytes, wholeOut := read(build(chunkPts))
	smallBytes, smallOut := read(build(128))
	if len(wholeOut) != queries*width || !slices.Equal(wholeOut, smallOut) {
		t.Fatalf("answers differ: one block per chunk %d points, 128-point blocks %d points, want %d each",
			len(wholeOut), len(smallOut), queries*width)
	}
	if smallBytes <= 0 || wholeBytes < 10*smallBytes {
		t.Fatalf("128-point blocks read %d bytes, one block per chunk %d: want at least 10x fewer", smallBytes, wholeBytes)
	}
}

// rewriteEngineFileAsV1 transcodes a v2 chunk file to the original
// statistics-free v1 index in place, built from the documented on-disk
// layout so the compat test needs no old binary.
func rewriteEngineFileAsV1(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const tail = 16 // 8-byte index offset + 8-byte magic
	ftr := len(raw) - tail
	if string(raw[ftr+8:]) != "GTSFEND2" {
		t.Fatalf("fixture expects a v2 file, footer %q", raw[ftr+8:])
	}
	indexOff := int64(binary.LittleEndian.Uint64(raw[ftr : ftr+8]))
	br := bytes.NewReader(raw[indexOff:ftr])
	count, err := binary.ReadUvarint(br)
	if err != nil {
		t.Fatal(err)
	}
	v1 := binary.AppendUvarint(nil, count)
	for i := uint64(0); i < count; i++ {
		nameLen, err := binary.ReadUvarint(br)
		if err != nil {
			t.Fatal(err)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			t.Fatal(err)
		}
		off, _ := binary.ReadUvarint(br)
		cnt, _ := binary.ReadUvarint(br)
		minT, _ := binary.ReadVarint(br)
		maxT, _ := binary.ReadVarint(br)
		flags, err := br.ReadByte()
		if err != nil {
			t.Fatal(err)
		}
		if flags&1 != 0 {
			if _, err := br.Seek(5*8, io.SeekCurrent); err != nil {
				t.Fatal(err)
			}
		}
		v1 = binary.AppendUvarint(v1, nameLen)
		v1 = append(v1, name...)
		v1 = binary.AppendUvarint(v1, off)
		v1 = binary.AppendUvarint(v1, cnt)
		v1 = binary.AppendVarint(v1, minT)
		v1 = binary.AppendVarint(v1, maxT)
	}
	out := append([]byte(nil), raw[:indexOff]...)
	out = append(out, v1...)
	var foot [8]byte
	binary.LittleEndian.PutUint64(foot[:], uint64(indexOff))
	out = append(out, foot[:]...)
	out = append(out, "GTSFEND1"...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBackwardCompatUpgradeToV3 is the version matrix: a flat-layout
// store holding the golden v2 file and a v1 file at its root opens with
// the v1 file quarantined and the v2 file folded into a v3 partition
// file, answers from it and freshly flushed v3 files together, and its
// compaction rewrites everything into one v3 file with identical
// answers, before and across a reopen.
func TestBackwardCompatUpgradeToV3(t *testing.T) {
	dir := t.TempDir()
	plantFixture(t, "v2.gtsf", filepath.Join(dir, "seq-000001.gtsf"))
	v1 := filepath.Join(dir, "seq-000002.gtsf")
	plantFixture(t, "v2.gtsf", v1)
	rewriteEngineFileAsV1(t, v1)

	e, err := Open(Config{Dir: dir, MemTableSize: 100, SyncFlush: true, blockPoints: 64})
	if err != nil {
		t.Fatalf("mixed v1/v2 store rejected: %v", err)
	}
	defer func() { e.Close() }()
	if got := e.Stats().QuarantinedFiles; got != 1 || e.FileCount() != 1 {
		t.Fatalf("v1 file: QuarantinedFiles = %d, FileCount = %d; want 1, 1", got, e.FileCount())
	}
	if _, err := os.Stat(v1 + ".quarantine"); err != nil {
		t.Fatalf("v1 file not quarantined: %v", err)
	}
	if got := checkStrictlyIncreasing(t, dir); got != 1 {
		t.Fatalf("%d files after open, want the v2 file folded into one strict file", got)
	}
	const n = 600
	for i := 400; i < n; i++ {
		if err := e.Insert("s", int64(i), float64(i)*0.5); err != nil {
			t.Fatal(err)
		}
	}
	if got := checkStrictlyIncreasing(t, dir); got != 3 {
		t.Fatalf("%d files, want three strict files", got)
	}
	answers := func(e *Engine) string {
		t.Helper()
		out, err := e.Query("s", -1, n+1)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != n {
			t.Fatalf("%d of %d points", len(out), n)
		}
		for i, tv := range out {
			if tv.T != int64(i) || tv.V != float64(i)*0.5 {
				t.Fatalf("record %d corrupted: %+v", i, tv)
			}
		}
		d, err := e.Query("d", 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		var ws []winagg.Window
		for op := winagg.Count; op <= winagg.Last; op++ {
			w, err := e.AggregateWindows("s", 50, 550, 64, op)
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, w...)
		}
		return fmt.Sprint(d, ws)
	}
	want := answers(e)
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := checkStrictlyIncreasing(t, dir); got != 1 {
		t.Fatalf("%d files after compaction, want one strict file", got)
	}
	if got := answers(e); got != want {
		t.Fatalf("answers changed by the upgrade:\n got %s\nwant %s", got, want)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = Open(Config{Dir: dir, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := answers(e); got != want {
		t.Fatalf("answers changed across reopen:\n got %s\nwant %s", got, want)
	}
}

// TestTornV3FileQuarantined proves a torn v3 write (a crash mid-flush
// leaving a truncated file at the servable name) is quarantined on
// recovery instead of served or fatal.
func TestTornV3FileQuarantined(t *testing.T) {
	dir := t.TempDir()
	e1, err := Open(Config{Dir: dir, MemTableSize: 64, SyncFlush: true, blockPoints: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		e1.Insert("s", int64(i), float64(i))
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "p*", "L*", "*.gtsf"))
	if len(files) != 1 {
		t.Fatalf("fixture files = %v", files)
	}
	info, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], info.Size()-7); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Config{Dir: dir, SyncFlush: true, blockPoints: 16})
	if err != nil {
		t.Fatalf("open with torn v3 file: %v", err)
	}
	defer e2.Close()
	if got := e2.Stats().QuarantinedFiles; got != 1 {
		t.Fatalf("QuarantinedFiles = %d, want 1", got)
	}
	if e2.FileCount() != 0 {
		t.Fatalf("torn file served: FileCount = %d", e2.FileCount())
	}
	if _, err := os.Stat(files[0] + ".quarantine"); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
}

// TestLeveledCompactionBoundsAndRecovery drives the partitioned leveled
// layout end to end: automatic merges run, no single pass reads more
// input than the deepest automatically-compacted level's size bound,
// files live under p<epoch>/L<n>/, a full scan is intact, and the whole
// structure round-trips a close/reopen.
func TestLeveledCompactionBoundsAndRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Dir: dir, MemTableSize: 500, SyncFlush: true,
		PartitionDuration: 5000, l0CompactFiles: 3,
		levelBaseBytes: 8 << 10, levelGrowth: 4, maxLevel: 2,
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000 // 4 partitions x 10 L0 flushes
	for i := 0; i < n; i++ {
		if err := e.Insert("s", int64(i), float64(i%389)+0.25); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	e.WaitFlushes()

	st := e.Stats()
	if st.CompactionPasses == 0 {
		t.Fatal("no automatic compaction passes ran")
	}
	// Automatic compaction reads from levels 0..maxLevel-1, and a pass
	// out of level l takes inputs up to that level's bound.
	bound := cfg.levelBaseBytes
	for l := 1; l < cfg.maxLevel; l++ {
		bound *= int64(cfg.levelGrowth)
	}
	if st.MaxCompactionPassBytes > bound {
		t.Fatalf("largest pass read %d input bytes, above the %d-byte level bound", st.MaxCompactionPassBytes, bound)
	}
	if st.PartitionsActive != 4 {
		t.Fatalf("PartitionsActive = %d, want 4", st.PartitionsActive)
	}
	if root, _ := filepath.Glob(filepath.Join(dir, "*.gtsf")); len(root) != 0 {
		t.Fatalf("partitioned engine left files in the root: %v", root)
	}
	leveled, _ := filepath.Glob(filepath.Join(dir, "p*", "L*", "*.gtsf"))
	if len(leveled) == 0 {
		t.Fatal("no files under the p*/L*/ layout")
	}
	for p := 0; p < 4; p++ {
		l0, _ := filepath.Glob(filepath.Join(dir, fmt.Sprintf("p%d", p), "L0", "*.gtsf"))
		if len(l0) >= cfg.l0CompactFiles {
			t.Fatalf("partition %d retains %d L0 files, trigger is %d", p, len(l0), cfg.l0CompactFiles)
		}
	}
	verify := func(e *Engine) {
		t.Helper()
		out, err := e.Query("s", 0, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != n {
			t.Fatalf("full scan: %d of %d points", len(out), n)
		}
		for i, tv := range out {
			if tv.T != int64(i) || tv.V != float64(i%389)+0.25 {
				t.Fatalf("record %d corrupted: %+v", i, tv)
			}
		}
	}
	verify(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(cfg)
	if err != nil {
		t.Fatalf("partitioned recovery: %v", err)
	}
	defer e2.Close()
	verify(e2)
	if st := e2.Stats(); st.PartitionsActive != 4 {
		t.Fatalf("PartitionsActive after reopen = %d, want 4", st.PartitionsActive)
	}
	// The recovered store keeps ingesting and compacting.
	for i := n; i < n+1500; i++ {
		if err := e2.Insert("s", int64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	e2.Flush()
	e2.WaitFlushes()
	out, err := e2.Query("s", n, n+1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1500 {
		t.Fatalf("post-recovery ingest: %d of 1500 points", len(out))
	}
}

// TestDropPartitionsBefore covers O(1) retention: whole expired
// partitions unlink, the counters report it, queries stop seeing the
// dropped range, and the drop survives a reopen.
func TestDropPartitionsBefore(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MemTableSize: 200, SyncFlush: true, PartitionDuration: 1000}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000 // partitions 0..4
	for i := 0; i < n; i++ {
		if err := e.Insert("s", int64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	e.WaitFlushes()

	dropped, err := e.DropPartitionsBefore(2000)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Fatalf("dropped %d partitions, want 2", dropped)
	}
	st := e.Stats()
	if st.PartitionsDropped != 2 || st.PartitionsActive != 3 {
		t.Fatalf("drop not visible in stats: dropped=%d active=%d", st.PartitionsDropped, st.PartitionsActive)
	}
	for _, p := range []string{"p0", "p1"} {
		if _, err := os.Stat(filepath.Join(dir, p)); !os.IsNotExist(err) {
			t.Fatalf("partition dir %s survived the drop: %v", p, err)
		}
	}
	gone, err := e.Query("s", 0, 1999)
	if err != nil {
		t.Fatal(err)
	}
	if len(gone) != 0 {
		t.Fatalf("%d points served from dropped partitions", len(gone))
	}
	kept, err := e.Query("s", 2000, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != n-2000 {
		t.Fatalf("kept %d points, want %d", len(kept), n-2000)
	}
	// Idempotent at the same cutoff.
	if again, err := e.DropPartitionsBefore(2000); err != nil || again != 0 {
		t.Fatalf("second drop: %d, %v", again, err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	gone, err = e2.Query("s", 0, 1999)
	if err != nil {
		t.Fatal(err)
	}
	if len(gone) != 0 {
		t.Fatalf("dropped data resurrected across reopen: %d points", len(gone))
	}
	if st := e2.Stats(); st.PartitionsActive != 3 {
		t.Fatalf("PartitionsActive after reopen = %d, want 3", st.PartitionsActive)
	}
}

// TestFoldCutsBlocksAtBlockPoints folds the golden v2 file, one block
// per chunk, into an engine with 64-point blocks. The merge hands out
// each input block as one run, and mergeInto must still cut its output
// at the block size.
func TestFoldCutsBlocksAtBlockPoints(t *testing.T) {
	dir := t.TempDir()
	plantFixture(t, "v2.gtsf", filepath.Join(dir, "seq-000001.gtsf"))
	openTest(t, Config{Dir: dir, blockPoints: 64})
	files, _ := filepath.Glob(filepath.Join(dir, "p*", "L*", "*.gtsf"))
	points := 0
	for _, f := range files {
		r, err := tsfile.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range r.Index() {
			points += m.Count
			for _, b := range m.Blocks {
				if b.Count > 64 {
					t.Fatalf("%s: a %d-point block of %q, want at most 64", f, b.Count, m.Sensor)
				}
			}
		}
		r.Close()
	}
	if points <= 64 {
		t.Fatalf("folded %d points: the fixture no longer exercises the cut", points)
	}
}
