package tsfile

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func tmpPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "test.gtsf")
}

func TestRoundTripSingleChunk(t *testing.T) {
	path := tmpPath(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	times := []int64{1, 5, 6, 9, 100000}
	values := []float64{0.5, -3, math.Pi, math.Inf(1), math.MaxFloat64}
	if err := w.WriteChunk("s1", times, values); err != nil {
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
	if len(idx) != 1 || idx[0].Sensor != "s1" || idx[0].Count != 5 ||
		idx[0].MinTime != 1 || idx[0].MaxTime != 100000 {
		t.Fatalf("index wrong: %+v", idx)
	}
	ts, vs, err := r.ReadChunk(idx[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range times {
		if ts[i] != times[i] || vs[i] != values[i] {
			t.Fatalf("record %d mismatch: (%d,%g) vs (%d,%g)", i, ts[i], vs[i], times[i], values[i])
		}
	}
}

func TestRoundTripManyChunksQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "q.gtsf")
		w, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		type chunk struct {
			sensor string
			ts     []int64
			vs     []float64
		}
		var chunks []chunk
		nChunks := 1 + r.Intn(5)
		for c := 0; c < nChunks; c++ {
			n := 1 + r.Intn(300)
			ts := make([]int64, n)
			vs := make([]float64, n)
			cur := r.Int63n(1000) - 500
			for i := range ts {
				cur += 1 + r.Int63n(100) // strictly increasing
				ts[i] = cur
				vs[i] = r.NormFloat64() * 1e6
			}
			ch := chunk{sensor: string(rune('a' + c)), ts: ts, vs: vs}
			chunks = append(chunks, ch)
			if err := w.WriteChunk(ch.sensor, ch.ts, ch.vs); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		rd, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		idx := rd.Index()
		if len(idx) != len(chunks) {
			return false
		}
		for i, ch := range chunks {
			ts, vs, err := rd.ReadChunk(idx[i])
			if err != nil {
				t.Fatal(err)
			}
			for j := range ch.ts {
				if ts[j] != ch.ts[j] || vs[j] != ch.vs[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteChunkValidation(t *testing.T) {
	path := tmpPath(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.WriteChunk("s", nil, nil); err == nil {
		t.Fatal("empty chunk accepted")
	}
	if err := w.WriteChunk("s", []int64{1, 2}, []float64{1}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if err := w.WriteChunk("s", []int64{2, 1}, []float64{1, 2}); err == nil {
		t.Fatal("unsorted chunk accepted")
	}
}

func TestWriteAfterClose(t *testing.T) {
	path := tmpPath(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk("s", []int64{1}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk("s", []int64{2}, []float64{2}); err == nil {
		t.Fatal("write after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

func TestCorruptionDetected(t *testing.T) {
	path := tmpPath(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	times := make([]int64, 100)
	values := make([]float64, 100)
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

	// Flip a byte inside the chunk payload (past the head magic).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[20] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err) // index is at the end and untouched
	}
	defer r.Close()
	if _, _, err := r.ReadChunk(r.Index()[0]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	// Too small.
	small := filepath.Join(dir, "small")
	if err := os.WriteFile(small, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(small); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tiny file accepted: %v", err)
	}
	// Wrong magic, right size.
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage accepted: %v", err)
	}
	// Missing file.
	if _, err := Open(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestTimestampCompression(t *testing.T) {
	// Regular sorted timestamps must encode far below 8 bytes each.
	path := tmpPath(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 10000
	times := make([]int64, n)
	values := make([]float64, n)
	for i := range times {
		times[i] = int64(i) * 1000
	}
	if err := w.WriteChunk("s", times, values); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// 8 bytes/value is irreducible here; timestamps should add ~2
	// bytes each, not 8.
	if st.Size() > int64(n*8+n*4) {
		t.Fatalf("file too large for delta encoding: %d bytes", st.Size())
	}
}

func TestEncodeAppendMatchesWriteChunk(t *testing.T) {
	// Encoding in any order then appending must produce a file
	// identical in content to sequential WriteChunk calls.
	times1 := []int64{1, 2, 3}
	vals1 := []float64{10, 20, 30}
	times2 := []int64{5, 9}
	vals2 := []float64{50, 90}

	direct := tmpPath(t)
	w, err := Create(direct)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk("a", times1, vals1); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk("b", times2, vals2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	staged := tmpPath(t)
	// Encode out of append order — Offset is only assigned at append.
	encB, err := EncodeChunkBlocks("b", times2, vals2, 0)
	if err != nil {
		t.Fatal(err)
	}
	encA, err := EncodeChunkBlocks("a", times1, vals1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if encA.Meta.Offset != 0 || encB.Meta.Offset != 0 {
		t.Fatal("offset assigned before append")
	}
	w2, err := Create(staged)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.AppendEncoded(encA); err != nil {
		t.Fatal(err)
	}
	if err := w2.AppendEncoded(encB); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	want, err := os.ReadFile(direct)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(staged)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("file sizes differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("files differ at byte %d", i)
		}
	}
}

func TestEncodeChunkValidation(t *testing.T) {
	if _, err := EncodeChunkBlocks("s", nil, nil, 0); err == nil {
		t.Fatal("empty chunk should fail")
	}
	if _, err := EncodeChunkBlocks("s", []int64{1, 2}, []float64{1}, 0); err == nil {
		t.Fatal("mismatched lengths should fail")
	}
	if _, err := EncodeChunkBlocks("s", []int64{2, 1}, []float64{1, 2}, 0); err == nil {
		t.Fatal("unsorted times should fail")
	}
}

// TestConcurrentReads: a Reader is shared by every query that touches
// its file, so block and chunk reads must be safe from many goroutines
// at once — on a v3 file and on a legacy v2 file alike. Run under -race.
func TestConcurrentReads(t *testing.T) {
	path := tmpPath(t)
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockPoints = 16
	times := make([]int64, 400)
	values := make([]float64, 400)
	for i := range times {
		times[i] = int64(i)
		values[i] = float64(i) * 0.5
	}
	for c := 0; c < 4; c++ {
		if err := w.WriteChunk("s", times[c*100:(c+1)*100], values[c*100:(c+1)*100]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, filepath.Join("testdata", "v2.gtsf")} {
		r, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := 0; round < 20; round++ {
					for _, m := range r.Index() {
						if m.Sensor != "s" {
							continue
						}
						if (g+round)%2 == 0 {
							ts, vs, err := r.ReadChunk(m)
							if err == nil && (len(ts) != m.Count || ts[0] != m.MinTime || vs[0] != float64(ts[0])*0.5) {
								err = fmt.Errorf("ReadChunk %+v: %d records from %d", m, len(ts), ts[0])
							}
							if err != nil {
								errs <- err
								return
							}
							continue
						}
						for _, b := range m.Blocks {
							maxT := b.MinTime + int64(g)
							_, ts, _, err := r.ReadBlockInto(m, b, maxT, nil, nil, nil)
							if want := min(int64(b.Count), maxT-b.MinTime+1); err == nil && int64(len(ts)) != want {
								err = fmt.Errorf("ReadBlockInto(%d) %+v: %d records, want %d", maxT, b, len(ts), want)
							}
							if err != nil {
								errs <- err
								return
							}
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%s: %v", p, err)
		}
	}
}
