package tsfile

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestStatsRoundTrip(t *testing.T) {
	path := tmpPath(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	times := []int64{1, 2, 3, 4}
	values := []float64{2.5, -1, 7, 3}
	if err := w.WriteChunk("s", times, values); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk("d", []int64{1, 2, 4}, []float64{5, 6, 7}); err != nil {
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
	if len(idx) != 2 {
		t.Fatalf("index size %d", len(idx))
	}
	st := idx[0].Stats
	if st == nil {
		t.Fatal("clean chunk lost its statistics")
	}
	if st.Min != -1 || st.Max != 7 || st.Sum != 11.5 || st.First != 2.5 || st.Last != 3 {
		t.Fatalf("stats wrong: %+v", st)
	}
	if st := idx[1].Stats; st == nil || *st != (ValueStats{Min: 5, Max: 7, Sum: 18, First: 5, Last: 7}) {
		t.Fatalf("second chunk stats wrong: %+v", st)
	}
}

// goldenV2 returns testdata/v2.gtsf, a file written by the last v2
// writer: sensor "s" in four 100-point chunks (t = i, v = i/2 for
// i < 400), then sensor "d" with points (1, 5), (1, 6), (2, 7), whose
// duplicate timestamp leaves it without statistics.
func goldenV2(tb testing.TB) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "v2.gtsf"))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// indexOffset reads the index offset from a file's footer.
func indexOffset(raw []byte) int64 {
	ftr := len(raw) - int(tailLen)
	return int64(binary.LittleEndian.Uint64(raw[ftr : ftr+8]))
}

// withIndex returns raw's bytes up to dataEnd followed by idx and a
// footer pointing at it with the given magic.
func withIndex(raw []byte, dataEnd int64, idx []byte, magic string) []byte {
	out := append([]byte(nil), raw[:dataEnd]...)
	out = append(out, idx...)
	out = binary.LittleEndian.AppendUint64(out, uint64(dataEnd))
	return append(out, magic...)
}

// appendEntry appends m's index entry fields up to and including a
// flags byte saying "no statistics" — a whole v2 entry, or a v3 entry
// still missing its block list.
func appendEntry(idx []byte, m ChunkMeta) []byte {
	idx = binary.AppendUvarint(idx, uint64(len(m.Sensor)))
	idx = append(idx, m.Sensor...)
	idx = binary.AppendUvarint(idx, uint64(m.Offset))
	idx = binary.AppendUvarint(idx, uint64(m.Count))
	idx = binary.AppendVarint(idx, m.MinTime)
	idx = binary.AppendVarint(idx, m.MaxTime)
	return append(idx, 0)
}

func writeFile(t *testing.T, raw []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f.gtsf")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestV1FileRejected: the statistics-free v1 index has not been
// written since value statistics landed, and is no longer read. A v1
// transcode of the golden v2 file fails to open with ErrCorrupt, so
// the engine quarantines it.
func TestV1FileRejected(t *testing.T) {
	raw := goldenV2(t)
	r, err := Open(writeFile(t, raw))
	if err != nil {
		t.Fatal(err)
	}
	var v1 []byte
	v1 = binary.AppendUvarint(v1, uint64(len(r.Index())))
	for _, m := range r.Index() {
		v1 = appendEntry(v1, m)
		v1 = v1[:len(v1)-1] // v1 entries stop after maxTime
	}
	r.Close()
	path := writeFile(t, withIndex(raw, indexOffset(raw), v1, "GTSFEND1"))
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v1 file: Open = %v, want ErrCorrupt", err)
	}
}

// TestV2GoldenReadable opens the golden v2 file: each legacy chunk is
// one block past its name header, reads back exactly what was written,
// and its CRC still covers the name header.
func TestV2GoldenReadable(t *testing.T) {
	raw := goldenV2(t)
	r, err := Open(writeFile(t, raw))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Strict() {
		t.Fatal("golden v2 file opens strict")
	}
	idx := r.Index()
	if len(idx) != 5 {
		t.Fatalf("index has %d entries, want 5", len(idx))
	}
	for i, m := range idx {
		if len(m.Blocks) != 1 {
			t.Fatalf("chunk %d has %d blocks, want 1", i, len(m.Blocks))
		}
		b := m.Blocks[0]
		hdr := int64(1 + len(m.Sensor))
		if b.Offset != m.Offset+hdr || b.Size != m.Size-hdr || b.Count != m.Count ||
			b.MinTime != m.MinTime || b.MaxTime != m.MaxTime || b.Stats != m.Stats {
			t.Fatalf("chunk %d: block %+v does not mirror chunk %+v", i, b, m)
		}
		ts, vs, err := r.ReadChunk(m)
		if err != nil {
			t.Fatal(err)
		}
		if m.Sensor == "d" {
			if m.Stats != nil || !slices.Equal(ts, []int64{1, 1, 2}) || !slices.Equal(vs, []float64{5, 6, 7}) {
				t.Fatalf("chunk d: %v %v, stats %+v", ts, vs, m.Stats)
			}
			continue
		}
		base := int64(i * 100)
		for j := range ts {
			if ts[j] != base+int64(j) || vs[j] != float64(ts[j])*0.5 {
				t.Fatalf("chunk %d record %d: (%d, %v)", i, j, ts[j], vs[j])
			}
		}
		if want := (ValueStats{Min: float64(base) * 0.5, Max: float64(base+99) * 0.5,
			Sum: float64(100*base+4950) * 0.5, First: float64(base) * 0.5, Last: float64(base+99) * 0.5}); m.Stats == nil || *m.Stats != want {
			t.Fatalf("chunk %d stats %+v, want %+v", i, m.Stats, want)
		}
		if _, ct, _, err := r.ReadBlockInto(m, b, base+50, nil, nil, nil); err != nil || len(ct) != 51 {
			t.Fatalf("chunk %d cut at %d: %d records, %v", i, base+50, len(ct), err)
		}
	}
	// The v2 CRC covers the name header: renaming a chunk's sensor
	// in place fails every read of it.
	bad := append([]byte(nil), raw...)
	bad[idx[1].Offset+1] = 't'
	rb, err := Open(writeFile(t, bad))
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	m := rb.Index()[1]
	if _, _, _, err := rb.ReadBlockInto(m, m.Blocks[0], m.MaxTime, nil, nil, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("renamed chunk: ReadBlockInto = %v, want ErrCorrupt", err)
	}
	if _, _, err := rb.ReadChunk(m); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("renamed chunk: ReadChunk = %v, want ErrCorrupt", err)
	}
}

func TestAppendEncodedRejectsOutOfOrderSensorChunks(t *testing.T) {
	path := tmpPath(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.WriteChunk("s", []int64{10, 20}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	// Out of order: starts before the previous chunk's max.
	if err := w.WriteChunk("s", []int64{15, 25}, []float64{3, 4}); err == nil {
		t.Fatal("overlapping same-sensor chunk accepted")
	}
	// Touching at the boundary repeats a timestamp: refused too.
	if err := w.WriteChunk("s", []int64{20, 30}, []float64{5, 6}); err == nil {
		t.Fatal("boundary-touching same-sensor chunk accepted")
	}
	if err := w.WriteChunk("s", []int64{21, 30}, []float64{5, 6}); err != nil {
		t.Fatalf("chunk after the previous max rejected: %v", err)
	}
	// Other sensors are independent.
	if err := w.WriteChunk("other", []int64{1}, []float64{1}); err != nil {
		t.Fatal(err)
	}
}

// corruptIndexEntry cuts the golden v2 file down to its first chunk,
// rewrites that chunk's index entry via mutate and returns the path.
func corruptIndexEntry(t *testing.T, mutate func(m *ChunkMeta)) string {
	t.Helper()
	raw := goldenV2(t)
	r, err := Open(writeFile(t, raw))
	if err != nil {
		t.Fatal(err)
	}
	m := r.Index()[0]
	r.Close()
	dataEnd := m.Offset + m.Size
	mutate(&m)
	idx := appendEntry(binary.AppendUvarint(nil, 1), m)
	return writeFile(t, withIndex(raw, dataEnd, idx, magicTailV2))
}

func TestLoadIndexRejectsHostileEntries(t *testing.T) {
	cases := map[string]func(m *ChunkMeta){
		// The old reader sized its ReadChunk buffer from Count; a huge
		// value allocated gigabytes (or wrapped negative and panicked)
		// before any CRC could object.
		"huge count":      func(m *ChunkMeta) { m.Count = math.MaxInt64 / 2 },
		"zero count":      func(m *ChunkMeta) { m.Count = 0 },
		"offset past idx": func(m *ChunkMeta) { m.Offset = 1 << 40 },
		"offset in magic": func(m *ChunkMeta) { m.Offset = 2 },
		"inverted times":  func(m *ChunkMeta) { m.MinTime, m.MaxTime = 5, 1 },
	}
	for name, mutate := range cases {
		path := corruptIndexEntry(t, mutate)
		if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Open = %v, want ErrCorrupt", name, err)
		}
	}
	// Sanity: the same rewrite with no mutation stays readable.
	path := corruptIndexEntry(t, func(m *ChunkMeta) {})
	r, err := Open(path)
	if err != nil {
		t.Fatalf("clean rewrite rejected: %v", err)
	}
	defer r.Close()
	if ts, _, err := r.ReadChunk(r.Index()[0]); err != nil || len(ts) != 100 {
		t.Fatalf("clean rewrite: ReadChunk = %d points, %v", len(ts), err)
	}
}

func TestLoadIndexRejectsOutOfOrderSensorChunks(t *testing.T) {
	// An index whose offsets ascend but which lists a sensor's chunks
	// out of time order: the engine's merge would see unsorted points.
	raw := goldenV2(t)
	r, err := Open(writeFile(t, raw))
	if err != nil {
		t.Fatal(err)
	}
	metas := r.Index()
	r.Close()
	first, second := metas[0], metas[1]
	first.Count, first.MinTime, first.MaxTime = metas[1].Count, metas[1].MinTime, metas[1].MaxTime
	second.Count, second.MinTime, second.MaxTime = metas[0].Count, metas[0].MinTime, metas[0].MaxTime
	idx := binary.AppendUvarint(nil, 2)
	idx = appendEntry(idx, first)
	idx = appendEntry(idx, second)
	path := writeFile(t, withIndex(raw, metas[2].Offset, idx, magicTailV2))
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-order index accepted: %v", err)
	}
}
