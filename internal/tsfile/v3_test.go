package tsfile

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
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
	// A v3 file is all-blocked by construction: an unblocked chunk is
	// refused.
	legacy, err := EncodeChunk("s3", times[:5], values[:5])
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendEncoded(legacy); err == nil {
		t.Fatal("v3 writer accepted an unblocked chunk")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Version() != 3 {
		t.Fatalf("version = %d, want 3", r.Version())
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
				ct, cv, err := r.ReadBlockUpTo(m, b, maxT)
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

// TestV3QueryMatchesV2 writes identical data in v2 and v3 layouts and
// requires QuerySensor to agree bit-for-bit on random ranges.
func TestV3QueryMatchesV2(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	const n = 1000
	times := make([]int64, n)
	values := make([]float64, n)
	tick := int64(0)
	for i := range times {
		tick += int64(rng.Intn(3)) // duplicates and gaps
		times[i] = tick
		values[i] = rng.NormFloat64()
	}
	paths := map[string]int{"v2.gtsf": 0, "v3.gtsf": 13}
	readers := map[string]*Reader{}
	for name, bp := range paths {
		p := filepath.Join(dir, name)
		w, err := Create(p)
		if err != nil {
			t.Fatal(err)
		}
		w.BlockPoints = bp
		// Two chunks per sensor to cover cross-chunk merging.
		if err := w.WriteChunk("s", times[:n/2], values[:n/2]); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteChunk("s", times[n/2:], values[n/2:]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		readers[name] = r
	}
	for q := 0; q < 200; q++ {
		lo := int64(rng.Intn(int(tick))) - 5
		hi := lo + int64(rng.Intn(40)) // narrow ranges exercise block pruning
		t2, v2, err := readers["v2.gtsf"].QuerySensor("s", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		t3, v3, err := readers["v3.gtsf"].QuerySensor("s", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(t2) != len(t3) {
			t.Fatalf("[%d,%d]: v2 %d points, v3 %d", lo, hi, len(t2), len(t3))
		}
		for i := range t2 {
			if t2[i] != t3[i] || v2[i] != v3[i] {
				t.Fatalf("[%d,%d] point %d: v2 (%d,%v) v3 (%d,%v)", lo, hi, i, t2[i], v2[i], t3[i], v3[i])
			}
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
	if err := w.BeginChunk("s"); err == nil {
		t.Fatal("BeginChunk accepted on a v2 writer")
	}
	w.BlockPoints = 4
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
	if err := w.Close(); err == nil {
		t.Fatal("Close accepted with an open streaming chunk")
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
}

// TestV3BlockBoundaryDuplicates pins the split rule: a run of equal
// timestamps never straddles a block boundary, and a boundary-equal
// pair of blocks disables chunk-level stats.
func TestV3BlockBoundaryDuplicates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.gtsf")
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w.BlockPoints = 4
	// Duplicates exactly at the would-be split point (index 4).
	times := []int64{0, 1, 2, 3, 3, 3, 4, 5, 6, 7}
	values := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if err := w.WriteChunk("s", times, values); err != nil {
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
	m := r.Index()[0]
	if m.Stats != nil {
		t.Fatal("chunk with duplicate timestamps has stats")
	}
	for i, b := range m.Blocks {
		if i > 0 && b.MinTime == m.Blocks[i-1].MaxTime {
			t.Fatalf("blocks %d/%d share timestamp %d across the boundary", i-1, i, b.MinTime)
		}
	}
	ts, _, err := r.ReadChunk(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != len(times) {
		t.Fatalf("read %d points, want %d", len(ts), len(times))
	}
}

// TestV3UnblockedEntryIsCorrupt: every v3 chunk is blocked, so a v3
// index entry with a zero block count — here a v2 entry relabelled v3
// — fails to open with ErrCorrupt.
func TestV3UnblockedEntryIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unblocked.gtsf")
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
	// The one entry ends the index: append its block count, 0, and
	// swap the footer magic.
	ftr := len(raw) - int(tailLen)
	out := append(append([]byte(nil), raw[:ftr]...), 0)
	out = append(out, raw[ftr:ftr+8]...)
	out = append(out, magicTailV3...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
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
