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
// 1–4 points, split into two chunks. One of the legacy sensors,
// written by a parent writer, may join at a rank the bytes choose.
func buildMergeCase(t *testing.T, data []byte, legacy []legacyRun) mergeCase {
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
		split := 1 + byteAt()%len(run)
		chunks := [][]TV{run[:split], run[split:]}
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
	if len(legacy) > 0 && byteAt()%2 == 1 {
		l := legacy[byteAt()%len(legacy)]
		at := byteAt() % (len(c.srcs) + 1)
		var run []TV
		for _, m := range overlapping(l.fh, l.sensor, 0, 100) {
			ts, vs, err := l.fh.reader.ReadChunk(m)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ts {
				run = append(run, TV{ts[i], vs[i]})
			}
		}
		src := newFileSource(l.fh, overlapping(l.fh, l.sensor, c.minT, c.maxT), c.minT, c.maxT)
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

func checkRunMerge(t *testing.T, data []byte, legacy []legacyRun) {
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

// legacyRun is one sensor of a fixture a parent writer wrote.
type legacyRun struct {
	fh     *fileHandle
	sensor string
}

// openLegacyFixtures opens the fixtures written by parent tsfile
// writers: testdata/v3dup.gtsf, from the last writer that accepted
// equal timestamps ("a" with duplicate runs inside blocks, "b" with one
// straddling its first block edge), and testdata/v3edge.gtsf, from the
// last writer that let a chunk open on its predecessor's last time
// ("c" with two such edges, "d" with three chunks in a row holding
// only the timestamp the one before ended on).
func openLegacyFixtures(t testing.TB) []legacyRun {
	var runs []legacyRun
	for _, f := range []struct {
		name    string
		sensors []string
	}{{"v3dup.gtsf", []string{"a", "b"}}, {"v3edge.gtsf", []string{"c", "d"}}} {
		path := filepath.Join("..", "tsfile", "testdata", f.name)
		r, err := tsfile.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		fh := newFileHandle(path, r, false)
		t.Cleanup(func() { fh.release() })
		for _, sensor := range f.sensors {
			runs = append(runs, legacyRun{fh, sensor})
		}
	}
	return runs
}

// TestRunMergeMatchesReference is FuzzRunMerge's tier-1 run over
// seeded random inputs.
func TestRunMergeMatchesReference(t *testing.T) {
	legacy := openLegacyFixtures(t)
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 400; i++ {
		data := make([]byte, rng.Intn(160))
		rng.Read(data)
		checkRunMerge(t, data, legacy)
	}
}

// FuzzRunMerge checks the run merge against referenceMerge on
// overlapping and disjoint runs, equal timestamps across ranks, and the
// parent-written duplicate runs inside a block, straddling a block
// edge and straddling chunk edges.
func FuzzRunMerge(f *testing.F) {
	legacy := openLegacyFixtures(f)
	f.Add([]byte{0, 43, 5, 0, 15, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 3, 1, 2, 1, 0})
	f.Add([]byte{2, 30, 3, 1, 6, 9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 1, 2, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRunMerge(t, data, legacy)
	})
}

// TestFileSourceRunsStrictlyIncrease drains file sources over the
// parent-written fixtures run by run: across runs, as inside one, times
// strictly increase and the first record of each duplicate run is the
// one kept — also for "b"'s run straddling its first block edge, for
// "c" and "d"'s chunks opening on their predecessor's last time, and
// when the range starts inside a run.
func TestFileSourceRunsStrictlyIncrease(t *testing.T) {
	legacy := map[string]*fileHandle{}
	for _, l := range openLegacyFixtures(t) {
		legacy[l.sensor] = l.fh
	}
	for _, c := range []struct {
		sensor     string
		minT, maxT int64
		want       []TV
	}{
		{"a", 0, 100, []TV{{0, 100}, {1, 101}, {2, 102}, {3, 103}, {4, 106}, {5, 107}, {6, 108}, {7, 110}, {8, 111}, {9, 112}, {10, 113}, {11, 114}}},
		{"b", 0, 100, []TV{{0, 200}, {2, 201}, {4, 202}, {6, 203}, {8, 206}, {10, 207}, {12, 208}, {14, 209}, {16, 210}, {18, 211}}},
		{"b", 6, 12, []TV{{6, 203}, {8, 206}, {10, 207}, {12, 208}}},
		{"c", 0, 100, []TV{{0, 300}, {2, 301}, {4, 302}, {6, 303}, {8, 304}, {10, 306}, {12, 307}, {14, 308}, {16, 310}}},
		{"c", 8, 14, []TV{{8, 304}, {10, 306}, {12, 307}, {14, 308}}},
		{"d", 0, 100, []TV{{5, 400}, {7, 404}}},
	} {
		fh := legacy[c.sensor]
		s := newFileSource(fh, overlapping(fh, c.sensor, c.minT, c.maxT), c.minT, c.maxT)
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
