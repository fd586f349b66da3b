package tsfile

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
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
	// Duplicate timestamps: no stats, because dedup at query time would
	// make them lie.
	if err := w.WriteChunk("d", []int64{1, 1, 2}, []float64{5, 6, 7}); err != nil {
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
	if idx[1].Stats != nil {
		t.Fatalf("duplicate-timestamp chunk has stats: %+v", idx[1].Stats)
	}
}

// rewriteAsV1 converts a (v2) file on disk to the original
// statistics-free index format, so back-compat tests can exercise the
// version negotiation without an old binary.
func rewriteAsV1(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ftr := len(raw) - int(tailLen)
	indexOff := int64(binary.LittleEndian.Uint64(raw[ftr : ftr+8]))
	idx := raw[indexOff:ftr]
	out := append([]byte(nil), raw[:indexOff]...)

	// Transcode the v2 index (entries end with a flags byte + optional
	// stats) into v1 (entries stop after maxTime).
	br := &sliceReader{b: idx}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		t.Fatal(err)
	}
	v1 := binary.AppendUvarint(nil, count)
	for i := uint64(0); i < count; i++ {
		nameLen, _ := binary.ReadUvarint(br)
		name, _ := br.take(int(nameLen))
		off, _ := binary.ReadUvarint(br)
		cnt, _ := binary.ReadUvarint(br)
		minT, _ := binary.ReadVarint(br)
		maxT, _ := binary.ReadVarint(br)
		flags, _ := br.ReadByte()
		if flags&1 != 0 {
			if _, err := br.take(5 * 8); err != nil {
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
	out = append(out, v1...)
	var foot [8]byte
	binary.LittleEndian.PutUint64(foot[:], uint64(indexOff))
	out = append(out, foot[:]...)
	out = append(out, magicTailV1...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestV1FileStillReadable(t *testing.T) {
	path := tmpPath(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	times := []int64{10, 20, 30}
	values := []float64{1, 2, 3}
	if err := w.WriteChunk("s", times, values); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rewriteAsV1(t, path)

	r, err := Open(path)
	if err != nil {
		t.Fatalf("v1 file rejected: %v", err)
	}
	defer r.Close()
	idx := r.Index()
	if len(idx) != 1 || idx[0].Count != 3 || idx[0].MinTime != 10 || idx[0].MaxTime != 30 {
		t.Fatalf("v1 index wrong: %+v", idx)
	}
	if idx[0].Stats != nil {
		t.Fatal("v1 entry has statistics")
	}
	ts, vs, err := r.ReadChunk(idx[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range times {
		if ts[i] != times[i] || vs[i] != values[i] {
			t.Fatalf("record %d mismatch", i)
		}
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
	// Touching at the boundary is allowed (nondecreasing, like the
	// chunks a flush splits).
	if err := w.WriteChunk("s", []int64{20, 30}, []float64{5, 6}); err != nil {
		t.Fatalf("boundary-touching chunk rejected: %v", err)
	}
	// Other sensors are independent.
	if err := w.WriteChunk("other", []int64{1}, []float64{1}); err != nil {
		t.Fatal(err)
	}
}

// corruptIndexEntry rewrites the first index entry of a freshly
// written single-chunk v2 file via mutate and returns the path.
func corruptIndexEntry(t *testing.T, mutate func(m *ChunkMeta)) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.gtsf")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk("s", []int64{1, 2, 3}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	metas := w.Index()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ftr := len(raw) - int(tailLen)
	indexOff := int64(binary.LittleEndian.Uint64(raw[ftr : ftr+8]))
	m := metas[0]
	m.Offset = int64(len(magicHead))
	mutate(&m)
	idx := binary.AppendUvarint(nil, 1)
	idx = binary.AppendUvarint(idx, uint64(len(m.Sensor)))
	idx = append(idx, m.Sensor...)
	idx = binary.AppendUvarint(idx, uint64(m.Offset))
	idx = binary.AppendUvarint(idx, uint64(m.Count))
	idx = binary.AppendVarint(idx, m.MinTime)
	idx = binary.AppendVarint(idx, m.MaxTime)
	idx = append(idx, 0) // no stats
	out := append([]byte(nil), raw[:indexOff]...)
	out = append(out, idx...)
	var foot [8]byte
	binary.LittleEndian.PutUint64(foot[:], uint64(indexOff))
	out = append(out, foot[:]...)
	out = append(out, magicTailV2...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
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
	r.Close()
}

func TestLoadIndexRejectsOutOfOrderSensorChunks(t *testing.T) {
	// Build a file whose index lists a sensor's chunks out of time
	// order — QuerySensor's concatenation would be unsorted.
	path := filepath.Join(t.TempDir(), "o.gtsf")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk("s", []int64{1, 2}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk("s", []int64{10, 20}, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	metas := w.Index()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ftr := len(raw) - int(tailLen)
	indexOff := int64(binary.LittleEndian.Uint64(raw[ftr : ftr+8]))
	idx := binary.AppendUvarint(nil, 2)
	for _, m := range []ChunkMeta{metas[1], metas[0]} { // swapped
		idx = binary.AppendUvarint(idx, uint64(len(m.Sensor)))
		idx = append(idx, m.Sensor...)
		idx = binary.AppendUvarint(idx, uint64(m.Offset))
		idx = binary.AppendUvarint(idx, uint64(m.Count))
		idx = binary.AppendVarint(idx, m.MinTime)
		idx = binary.AppendVarint(idx, m.MaxTime)
		idx = append(idx, 0)
	}
	out := append([]byte(nil), raw[:indexOff]...)
	out = append(out, idx...)
	var foot [8]byte
	binary.LittleEndian.PutUint64(foot[:], uint64(indexOff))
	out = append(out, foot[:]...)
	out = append(out, magicTailV2...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-order index accepted: %v", err)
	}
}
