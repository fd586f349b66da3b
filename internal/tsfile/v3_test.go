package tsfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/encoding"
	"repro/internal/faultfs"
)

func TestV3RoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v3.gtsf")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockPoints = 16
	const n = 100
	times := make([]int64, n)
	values := make([]float64, n)
	for i := range times {
		times[i] = int64(i * 3)
		values[i] = float64(i) * 1.5
	}
	if err := w.WriteChunk("s1", times, values); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk("s2", times[:5], values[:5]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Strict() {
		t.Fatal("writer output does not open strict")
	}
	idx := r.Index()
	if len(idx) != 2 {
		t.Fatalf("index has %d entries", len(idx))
	}
	// 100 points at 16 per block → 7 blocks.
	if got := len(idx[0].Blocks); got != 7 {
		t.Fatalf("s1 has %d blocks, want 7", got)
	}
	if len(idx[1].Blocks) != 1 {
		t.Fatalf("s2 has %d blocks, want 1", len(idx[1].Blocks))
	}
	for _, m := range idx {
		ts, vs, err := r.ReadChunk(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(ts) != m.Count || len(vs) != m.Count {
			t.Fatalf("%s: got %d/%d points, want %d", m.Sensor, len(ts), len(vs), m.Count)
		}
		for i := range ts {
			if ts[i] != times[i] || vs[i] != values[i] {
				t.Fatalf("%s: point %d = (%d, %v)", m.Sensor, i, ts[i], vs[i])
			}
		}
		// Per-block stats and bounds must agree with a direct decode.
		sum := 0
		for _, b := range m.Blocks {
			bt, bv, err := r.ReadBlock(m, b)
			if err != nil {
				t.Fatal(err)
			}
			if len(bt) != b.Count || bt[0] != b.MinTime || bt[len(bt)-1] != b.MaxTime {
				t.Fatalf("block meta %+v disagrees with decode", b)
			}
			if b.Stats == nil {
				t.Fatalf("block without stats: %+v", b)
			}
			var s float64
			for _, v := range bv {
				s += v
			}
			if s != b.Stats.Sum || bv[0] != b.Stats.First || bv[len(bv)-1] != b.Stats.Last {
				t.Fatalf("block stats %+v disagree with decode", *b.Stats)
			}
			sum += b.Count
			// A read cut at maxT returns exactly the records up to it.
			for _, maxT := range []int64{b.MinTime - 1, b.MinTime, bt[len(bt)/2], b.MaxTime} {
				_, ct, cv, err := r.ReadBlockInto(m, b, maxT, nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				want := sort.Search(len(bt), func(i int) bool { return bt[i] > maxT })
				if !slices.Equal(ct, bt[:want]) || !slices.Equal(cv, bv[:want]) {
					t.Fatalf("block %+v cut at %d: got %d records, want the first %d", b, maxT, len(ct), want)
				}
			}
		}
		if sum != m.Count {
			t.Fatalf("block counts sum to %d, want %d", sum, m.Count)
		}
	}
}

// rangeRead returns sensor's records within [lo, hi] the way the
// engine's file source reads them: chunks and blocks whose bounds miss
// the range are skipped, and each block is cut at hi.
func rangeRead(t *testing.T, r *Reader, sensor string, lo, hi int64) (ts []int64, vs []float64) {
	t.Helper()
	for _, m := range r.Index() {
		if m.Sensor != sensor || m.MaxTime < lo || m.MinTime > hi {
			continue
		}
		for _, b := range m.Blocks {
			if b.MaxTime < lo || b.MinTime > hi {
				continue
			}
			_, bt, bv, err := r.ReadBlockInto(m, b, hi, nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range bt {
				if v >= lo {
					ts = append(ts, v)
					vs = append(vs, bv[i])
				}
			}
		}
	}
	return ts, vs
}

// TestV3QueryMatchesV2 rewrites the golden v2 file's "s" chunks as
// small v3 blocks and requires block-pruned range reads of both files to
// agree bit-for-bit on random ranges.
func TestV3QueryMatchesV2(t *testing.T) {
	v2, err := Open(filepath.Join("testdata", "v2.gtsf"))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if v2.Strict() {
		t.Fatal("golden v2 file opens strict")
	}
	p := filepath.Join(t.TempDir(), "v3.gtsf")
	w, err := Create(p)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockPoints = 13
	for _, m := range v2.Index() {
		if m.Sensor != "s" {
			continue // "d" repeats a timestamp, which a v3 writer refuses
		}
		ts, vs, err := v2.ReadChunk(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteChunk(m.Sensor, ts, vs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	v3, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer v3.Close()
	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 200; q++ {
		sensor := "s"
		lo := int64(rng.Intn(410)) - 5
		hi := lo + int64(rng.Intn(40)) // narrow ranges exercise block pruning
		t2, v2s := rangeRead(t, v2, sensor, lo, hi)
		t3, v3s := rangeRead(t, v3, sensor, lo, hi)
		if !slices.Equal(t2, t3) || !slices.Equal(v2s, v3s) {
			t.Fatalf("%s [%d,%d]: v2 %v %v, v3 %v %v", sensor, lo, hi, t2, v2s, t3, v3s)
		}
	}
}

// TestV3StreamingWriter drives BeginChunk/AppendBlock/EndChunk — the
// compaction write path — and checks the result equals a WriteChunk
// file's contents.
func TestV3StreamingWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.gtsf")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockPoints = 8
	if err := w.BeginChunk("s"); err != nil {
		t.Fatal(err)
	}
	var allT []int64
	var allV []float64
	next := int64(0)
	for b := 0; b < 5; b++ {
		var ts []int64
		var vs []float64
		for i := 0; i < 8; i++ {
			ts = append(ts, next)
			vs = append(vs, float64(next)*0.5)
			next += 2
		}
		if err := w.AppendBlock(ts, vs); err != nil {
			t.Fatal(err)
		}
		allT = append(allT, ts...)
		allV = append(allV, vs...)
	}
	if err := w.EndChunk(); err != nil {
		t.Fatal(err)
	}
	// A second sensor after the streamed chunk must still work.
	if err := w.WriteChunk("u", []int64{1, 2, 3}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	idx := r.Index()
	if len(idx) != 2 || idx[0].Count != len(allT) || len(idx[0].Blocks) != 5 {
		t.Fatalf("index: %+v", idx)
	}
	if idx[0].Stats == nil || idx[0].Stats.First != allV[0] || idx[0].Stats.Last != allV[len(allV)-1] {
		t.Fatalf("streamed chunk stats: %+v", idx[0].Stats)
	}
	ts, vs, err := r.ReadChunk(idx[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range allT {
		if ts[i] != allT[i] || vs[i] != allV[i] {
			t.Fatalf("point %d: (%d,%v) want (%d,%v)", i, ts[i], vs[i], allT[i], allV[i])
		}
	}
}

func TestV3StreamingGuards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.gtsf")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBlock([]int64{1}, []float64{1}); err == nil {
		t.Fatal("AppendBlock without BeginChunk accepted")
	}
	if err := w.BeginChunk("s"); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBlock([]int64{5, 6}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBlock([]int64{4}, []float64{0}); err == nil {
		t.Fatal("out-of-order block accepted")
	}
	if err := w.EndChunk(); err != nil {
		t.Fatal(err)
	}
	// After EndChunk an older same-sensor chunk must be rejected.
	if err := w.BeginChunk("s"); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBlock([]int64{2}, []float64{2}); err == nil {
		t.Fatal("cross-chunk time-order violation accepted")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close accepted with an open streaming chunk")
	}
}

// closeRecorder is the real filesystem, recording the name of every
// file closed through it.
type closeRecorder struct {
	faultfs.FS
	closed []string
}

func (r *closeRecorder) Create(path string) (faultfs.File, error) {
	f, err := r.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &recordedFile{File: f, r: r}, nil
}

type recordedFile struct {
	faultfs.File
	r *closeRecorder
}

func (f *recordedFile) Close() error {
	f.r.closed = append(f.r.closed, f.Name())
	return f.File.Close()
}

// TestCloseWithOpenChunkClosesFile: a writer abandoned mid-chunk (a
// compaction read error, an upgrade stopping at a bad block) is closed
// by Close, which still reports the open chunk, and only once.
func TestCloseWithOpenChunkClosesFile(t *testing.T) {
	fs := &closeRecorder{FS: faultfs.OS}
	path := filepath.Join(t.TempDir(), "open.gtsf")
	w, err := CreateFS(fs, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BeginChunk("s"); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBlock([]int64{1, 2}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "still open") {
		t.Fatalf("Close with an open chunk = %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if len(fs.closed) != 1 || fs.closed[0] != path {
		t.Fatalf("files closed: %v, want [%s]", fs.closed, path)
	}
}

// TestStreamedChunkMatchesWriteChunk: a chunk streamed block by block
// with WriteChunk's cuts is byte for byte the file WriteChunk writes,
// statistics included (values chosen so a different summation order
// would change the chunk's Sum).
func TestStreamedChunkMatchesWriteChunk(t *testing.T) {
	const bp = 4
	times := make([]int64, 11)
	values := make([]float64, len(times))
	for i := range times {
		times[i] = int64(i*i) - 7
		values[i] = 1e16/float64(i+1) + 0.1*float64(i)
	}
	dir := t.TempDir()
	write := func(name string, fill func(w *Writer) error) []byte {
		path := filepath.Join(dir, name)
		w, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w.BlockPoints = bp
		if err := fill(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	whole := write("whole.gtsf", func(w *Writer) error {
		if err := w.WriteChunk("a", times, values); err != nil {
			return err
		}
		return w.WriteChunk("b", times[:1], values[:1])
	})
	streamed := write("streamed.gtsf", func(w *Writer) error {
		for _, c := range []struct {
			sensor string
			n      int
		}{{"a", len(times)}, {"b", 1}} {
			if err := w.BeginChunk(c.sensor); err != nil {
				return err
			}
			for start := 0; start < c.n; start += bp {
				end := min(start+bp, c.n)
				if err := w.AppendBlock(times[start:end], values[start:end]); err != nil {
					return err
				}
			}
			if err := w.EndChunk(); err != nil {
				return err
			}
		}
		return nil
	})
	if !bytes.Equal(whole, streamed) {
		t.Fatalf("streamed file differs from WriteChunk's:\n%x\n%x", streamed, whole)
	}
}

// TestV3ParentDuplicatesReadable opens testdata/v3dup.gtsf, written
// by the last writer that accepted equal timestamps: sensor "a" with
// BlockPoints 4 at t = 0 1 2 3 3 3 4 5 6 6 7 8 9 10 11 (v = 100 + i),
// whose duplicate runs each stayed inside one block, and sensor "b"
// streamed as blocks {0 2 4 6 6} {6 8 10} {12 14 16 18} (v = 200 + i),
// whose run at 6 straddles the first boundary. Blocks and chunks
// holding duplicates carry no statistics; the rest still do; every
// point reads back as written.
func TestV3ParentDuplicatesReadable(t *testing.T) {
	r, err := Open(filepath.Join("testdata", "v3dup.gtsf"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Strict() {
		t.Fatal("file with duplicate timestamps opens strict")
	}
	want := map[string]struct {
		times     []int64
		base      float64
		blockSize []int
		hasStats  []bool
	}{
		"a": {[]int64{0, 1, 2, 3, 3, 3, 4, 5, 6, 6, 7, 8, 9, 10, 11}, 100, []int{6, 4, 4, 1}, []bool{false, false, true, true}},
		"b": {[]int64{0, 2, 4, 6, 6, 6, 8, 10, 12, 14, 16, 18}, 200, []int{5, 3, 4}, []bool{false, true, true}},
	}
	idx := r.Index()
	if len(idx) != len(want) {
		t.Fatalf("index has %d entries, want %d", len(idx), len(want))
	}
	for _, m := range idx {
		w := want[m.Sensor]
		if m.Stats != nil {
			t.Fatalf("%s: chunk with duplicate timestamps has stats %+v", m.Sensor, *m.Stats)
		}
		if len(m.Blocks) != len(w.blockSize) {
			t.Fatalf("%s: %d blocks, want %d", m.Sensor, len(m.Blocks), len(w.blockSize))
		}
		for i, b := range m.Blocks {
			if b.Count != w.blockSize[i] || (b.Stats != nil) != w.hasStats[i] {
				t.Fatalf("%s block %d: %d points, stats %v; want %d, %v", m.Sensor, i, b.Count, b.Stats != nil, w.blockSize[i], w.hasStats[i])
			}
		}
		ts, vs, err := r.ReadChunk(m)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ts, w.times) {
			t.Fatalf("%s: times %v, want %v", m.Sensor, ts, w.times)
		}
		for i, v := range vs {
			if v != w.base+float64(i) {
				t.Fatalf("%s: value %d = %v, want %v", m.Sensor, i, v, w.base+float64(i))
			}
		}
	}
}

// TestV3ParentChunkEdgesReadable opens testdata/v3edge.gtsf, written
// by the last writer that let a chunk open on its predecessor's last
// time: "c" in chunks {0 2 4 | 6 8} {8 10 12 | 14} {14 16}
// (v = 300 + i) and "d" in chunks {5} {5} {5} {5 7} (v = 400 + i). The
// index still accepts such edges, and every chunk reads back as
// written.
func TestV3ParentChunkEdgesReadable(t *testing.T) {
	r, err := Open(filepath.Join("testdata", "v3edge.gtsf"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := map[string][]int64{"c": {0, 2, 4, 6, 8, 8, 10, 12, 14, 14, 16}, "d": {5, 5, 5, 5, 7}}
	base := map[string]float64{"c": 300, "d": 400}
	got := map[string][]int64{}
	for _, m := range r.Index() {
		ts, vs, err := r.ReadChunk(m)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vs {
			if want := base[m.Sensor] + float64(len(got[m.Sensor])+i); v != want {
				t.Fatalf("%s: value %v, want %v", m.Sensor, v, want)
			}
		}
		got[m.Sensor] = append(got[m.Sensor], ts...)
	}
	for sensor, w := range want {
		if !slices.Equal(got[sensor], w) {
			t.Fatalf("%s: times %v, want %v", sensor, got[sensor], w)
		}
	}
}

// TestWriterRefusesEqualTimestamps: every write path refuses a
// timestamp equal to the one before it, inside a chunk, across a
// streamed block boundary, and across the edge between a sensor's
// chunks, whether the next chunk arrives encoded or streamed.
func TestWriterRefusesEqualTimestamps(t *testing.T) {
	if _, err := EncodeChunkBlocks("s", []int64{1, 2, 2, 3}, []float64{1, 2, 3, 4}, 2); err == nil {
		t.Fatal("EncodeChunkBlocks accepted an equal timestamp")
	}
	w, err := Create(filepath.Join(t.TempDir(), "eq.gtsf"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.WriteChunk("s", []int64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("WriteChunk accepted an equal timestamp")
	}
	if err := w.BeginChunk("s"); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBlock([]int64{1, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("AppendBlock accepted an equal timestamp inside a block")
	}
	if err := w.AppendBlock([]int64{1, 2}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBlock([]int64{2, 3}, []float64{3, 4}); err == nil {
		t.Fatal("AppendBlock accepted an equal timestamp across the block boundary")
	}
	if err := w.AppendBlock([]int64{3, 4}, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := w.EndChunk(); err != nil {
		t.Fatal(err)
	}
	// The chunk edge: "s" last wrote t = 4.
	if err := w.WriteChunk("s", []int64{4, 5}, []float64{1, 2}); err == nil {
		t.Fatal("WriteChunk accepted a chunk opening on its predecessor's last time")
	}
	if err := w.BeginChunk("s"); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBlock([]int64{4, 5}, []float64{1, 2}); err == nil {
		t.Fatal("AppendBlock accepted a chunk opening on its predecessor's last time")
	}
	if err := w.AppendBlock([]int64{5, 6}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.EndChunk(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk("s", []int64{7}, []float64{1}); err != nil {
		t.Fatal(err)
	}
}

// TestV3UnblockedEntryIsCorrupt: every v3 chunk is blocked, so a v3
// index entry with a zero block count fails to open with ErrCorrupt.
func TestV3UnblockedEntryIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unblocked.gtsf")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk("s", []int64{1, 2, 3}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	m := w.Index()[0]
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := appendEntry(binary.AppendUvarint(nil, 1), m)
	idx = append(idx, 0) // block count
	if _, err := Open(writeFile(t, withIndex(raw, indexOffset(raw), idx, magicTailV3))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unblocked v3 entry: Open = %v, want ErrCorrupt", err)
	}
}

// TestV3TornTailReadsAsCorrupt truncates a v3 file at every cut in its
// tail and requires Open to fail rather than mis-read.
func TestV3TornTailReadsAsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.gtsf")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockPoints = 8
	times := make([]int64, 64)
	values := make([]float64, 64)
	for i := range times {
		times[i] = int64(i)
		values[i] = float64(i)
	}
	if err := w.WriteChunk("s", times, values); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation of a v3 file must fail to open (torn write).
	for cut := len(full) - 1; cut > len(full)-int(tailLen)-10; cut-- {
		torn := filepath.Join(t.TempDir(), "cut.gtsf")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(torn); err == nil {
			t.Fatalf("truncation at %d opened cleanly", cut)
		}
	}
}

// TestStrictFileBlockOutOfOrderIsCorrupt rewrites the timestamps of a
// strict file's block, CRC and all, without touching its index: a tie
// or a time past the indexed bounds fails every read of the block with
// ErrCorrupt, and Upgrade with it, instead of being served.
func TestStrictFileBlockOutOfOrderIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.gtsf")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk("s", []int64{1, 2, 3}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	b := r.Index()[0].Blocks[0]
	r.Close()
	for _, times := range [][]int64{{1, 1, 3}, {1, 2, 4}, {0, 2, 3}} {
		bad := append([]byte(nil), raw...)
		block := bad[b.Offset : b.Offset+b.Size-4]
		if enc := encoding.AppendTS2Diff(nil, times); copy(block, enc) != len(enc) {
			t.Fatal("timestamps do not fit the block")
		}
		binary.LittleEndian.PutUint32(bad[b.Offset+b.Size-4:], crc32.ChecksumIEEE(block))
		r, err := Open(writeFile(t, bad))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if !r.Strict() {
			t.Fatal("rewritten block changed the index")
		}
		m := r.Index()[0]
		if _, _, err := r.ReadChunk(m); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("times %v: ReadChunk = %v, want ErrCorrupt", times, err)
		}
		if _, _, _, err := r.ReadBlockInto(m, m.Blocks[0], 1, nil, nil, nil); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("times %v: ReadBlockInto = %v, want ErrCorrupt", times, err)
		}
		w, err := Create(filepath.Join(t.TempDir(), "up.gtsf"))
		if err != nil {
			t.Fatal(err)
		}
		if err := Upgrade(r, w); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("times %v: Upgrade = %v, want ErrCorrupt", times, err)
		}
		w.Close()
	}
}
