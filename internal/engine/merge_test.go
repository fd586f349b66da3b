package engine

import (
	"cmp"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/tsfile"
)

// mergeCase is one decoded merge input set: the sources newest-first
// and, for the reference, each source's raw records in order.
type mergeCase struct {
	srcs       []*source
	raw        [][]TV
	minT, maxT int64
}

// buildMergeCase turns fuzz bytes into 1–6 newest-first sources over
// times in [0, 40): snapshot sources (one strictly increasing run) and
// file sources written to one tsfile — one sensor each, in blocks of
// 1–4 points, split into two chunks whose edge may repeat a timestamp.
// With legacy non-nil, a sensor of testdata/v3dup.gtsf, written by a
// parent writer — "a" with duplicate runs inside blocks, or "b" with
// one straddling its first block edge — joins at a rank the bytes
// choose.
func buildMergeCase(t *testing.T, data []byte, legacy *fileHandle) mergeCase {
	t.Helper()
	pos := 0
	byteAt := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	c := mergeCase{minT: int64(byteAt()%44) - 2}
	c.maxT = c.minT + int64(byteAt()%44)
	k := 1 + byteAt()%6
	path := filepath.Join(t.TempDir(), "runs.gtsf")
	w, err := tsfile.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	isFile := make([]bool, k)
	for i := range isFile {
		var run []TV
		tm := int64(byteAt() % 8)
		for n := byteAt() % 16; n > 0 && tm < 40; n-- {
			run = append(run, TV{tm, float64(i*100 + byteAt())})
			tm += 1 + int64(byteAt()%3)
		}
		c.raw = append(c.raw, run)
		isFile[i] = byteAt()%2 == 1 && len(run) > 0
		if !isFile[i] {
			continue
		}
		// Two chunks; a second chunk may open on the first's last time.
		split := 1 + byteAt()%len(run)
		chunks := [][]TV{run[:split], run[split:]}
		if split < len(run) && byteAt()%2 == 1 {
			dup := TV{run[split-1].T, -1 - float64(i)}
			chunks[1] = append([]TV{dup}, chunks[1]...)
			c.raw[i] = append(append(append([]TV(nil), run[:split]...), dup), run[split:]...)
		}
		bp := 1 + byteAt()%4
		sensor := string(rune('a' + i))
		for _, ch := range chunks {
			if len(ch) == 0 {
				continue
			}
			if err := w.BeginChunk(sensor); err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(ch); lo += bp {
				var ts []int64
				var vs []float64
				for _, tv := range ch[lo:min(lo+bp, len(ch))] {
					ts, vs = append(ts, tv.T), append(vs, tv.V)
				}
				if err := w.AppendBlock(ts, vs); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.EndChunk(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := tsfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fh := newFileHandle(path, r, false)
	t.Cleanup(func() { fh.release() })
	for i, run := range c.raw {
		if isFile[i] {
			c.srcs = append(c.srcs, newFileSource(fh, overlapping(fh, string(rune('a'+i)), c.minT, c.maxT), c.minT, c.maxT))
			continue
		}
		s := &source{}
		for _, tv := range run {
			if tv.T >= c.minT && tv.T <= c.maxT {
				s.times, s.values = append(s.times, tv.T), append(s.values, tv.V)
			}
		}
		c.srcs = append(c.srcs, s)
	}
	if legacy != nil && byteAt()%2 == 1 {
		sensor := []string{"a", "b"}[byteAt()%2]
		at := byteAt() % (len(c.srcs) + 1)
		ts, vs, err := legacy.reader.ReadChunk(overlapping(legacy, sensor, 0, 100)[0])
		if err != nil {
			t.Fatal(err)
		}
		var run []TV
		for i := range ts {
			run = append(run, TV{ts[i], vs[i]})
		}
		src := newFileSource(legacy, overlapping(legacy, sensor, c.minT, c.maxT), c.minT, c.maxT)
		c.srcs = slices.Insert(c.srcs, at, src)
		c.raw = slices.Insert(c.raw, at, run)
	}
	return c
}

// referenceMerge is the merge's specification: over [minT, maxT], the
// newest source holding a timestamp supplies it, and inside a source
// the first record of that timestamp wins.
func referenceMerge(raw [][]TV, minT, maxT int64) []TV {
	won := map[int64]float64{}
	for _, run := range raw { // newest first
		seen := map[int64]bool{}
		for _, tv := range run {
			if _, taken := won[tv.T]; !taken && !seen[tv.T] && tv.T >= minT && tv.T <= maxT {
				won[tv.T] = tv.V
			}
			seen[tv.T] = true
		}
	}
	var out []TV
	for tm, v := range won {
		out = append(out, TV{tm, v})
	}
	slices.SortFunc(out, func(a, b TV) int { return cmp.Compare(a.T, b.T) })
	return out
}

func checkRunMerge(t *testing.T, data []byte, legacy *fileHandle) {
	c := buildMergeCase(t, data, legacy)
	m, err := newMerge(c.srcs)
	if err != nil {
		t.Fatal(err)
	}
	var got []TV
	for {
		ts, vs, err := m.next()
		if err != nil {
			t.Fatal(err)
		}
		if len(ts) == 0 {
			break
		}
		if len(vs) != len(ts) {
			t.Fatalf("run of %d times and %d values", len(ts), len(vs))
		}
		for i := range ts {
			got = append(got, TV{ts[i], vs[i]})
		}
	}
	if want := referenceMerge(c.raw, c.minT, c.maxT); !slices.Equal(got, want) {
		t.Fatalf("[%d, %d] over %v:\nmerge     %v\nreference %v", c.minT, c.maxT, c.raw, got, want)
	}
}

// openLegacyFixture opens testdata/v3dup.gtsf, written by the last
// tsfile writer that accepted equal timestamps.
func openLegacyFixture(t testing.TB) *fileHandle {
	path := filepath.Join("..", "tsfile", "testdata", "v3dup.gtsf")
	r, err := tsfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fh := newFileHandle(path, r, false)
	t.Cleanup(func() { fh.release() })
	return fh
}

// TestRunMergeMatchesReference is FuzzRunMerge's tier-1 run over
// seeded random inputs.
func TestRunMergeMatchesReference(t *testing.T) {
	legacy := openLegacyFixture(t)
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 400; i++ {
		data := make([]byte, rng.Intn(160))
		rng.Read(data)
		checkRunMerge(t, data, legacy)
	}
}

// FuzzRunMerge checks the run merge against referenceMerge on
// overlapping and disjoint runs, equal timestamps across ranks, chunk
// edges that repeat a timestamp, and the parent-written duplicate run
// straddling a block edge.
func FuzzRunMerge(f *testing.F) {
	legacy := openLegacyFixture(f)
	f.Add([]byte{0, 43, 5, 0, 15, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 3, 1, 2, 1, 0})
	f.Add([]byte{2, 30, 3, 1, 6, 9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 1, 2, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRunMerge(t, data, legacy)
	})
}

// TestFileSourceRunsStrictlyIncrease drains file sources over the
// parent-written fixture run by run: across runs, as inside one, times
// strictly increase and the first record of each duplicate run is the
// one kept — also for "b"'s run straddling its first block edge, and
// when the range starts inside a run.
func TestFileSourceRunsStrictlyIncrease(t *testing.T) {
	legacy := openLegacyFixture(t)
	for _, c := range []struct {
		sensor     string
		minT, maxT int64
		want       []TV
	}{
		{"a", 0, 100, []TV{{0, 100}, {1, 101}, {2, 102}, {3, 103}, {4, 106}, {5, 107}, {6, 108}, {7, 110}, {8, 111}, {9, 112}, {10, 113}, {11, 114}}},
		{"b", 0, 100, []TV{{0, 200}, {2, 201}, {4, 202}, {6, 203}, {8, 206}, {10, 207}, {12, 208}, {14, 209}, {16, 210}, {18, 211}}},
		{"b", 6, 12, []TV{{6, 203}, {8, 206}, {10, 207}, {12, 208}}},
	} {
		s := newFileSource(legacy, overlapping(legacy, c.sensor, c.minT, c.maxT), c.minT, c.maxT)
		var got []TV
		for {
			ok, err := s.fill()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			for i, tm := range s.times {
				got = append(got, TV{tm, s.values[i]})
			}
			s.times, s.values = nil, nil
		}
		if !slices.Equal(got, c.want) {
			t.Fatalf("%s [%d, %d]: runs %v, want %v", c.sensor, c.minT, c.maxT, got, c.want)
		}
	}
}
