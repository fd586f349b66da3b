package engine

import (
	"cmp"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/tsfile"
	"repro/internal/winagg"
)

// mergeCase is one decoded merge input set: the sources newest-first
// and, for the reference, each source's raw records in order; the
// ranges the merge may hand out whole; and, keyed by their statistics,
// a decoder for every chunk and block a file source may hand out.
type mergeCase struct {
	srcs       []*source
	raw        [][]TV
	minT, maxT int64
	accept     func(lo, hi int64) bool
	pieces     map[*tsfile.ValueStats]func() ([]int64, []float64, error)
}

// addPieces registers a decoder for each of fh's chunks and blocks.
func (c *mergeCase) addPieces(fh *fileHandle, chunks []tsfile.ChunkMeta) {
	for _, m := range chunks {
		c.pieces[m.Stats] = func() ([]int64, []float64, error) { return fh.reader.ReadChunk(m) }
		for _, b := range m.Blocks {
			c.pieces[b.Stats] = func() ([]int64, []float64, error) { return fh.reader.ReadBlock(m, b) }
		}
	}
}

// buildMergeCase turns fuzz bytes into 1–6 newest-first sources over
// times in [0, 40): snapshot sources (one strictly increasing run) and
// file sources written to one tsfile — one sensor each, in blocks of
// 1–4 points, split into two chunks. One of the legacy sensors — a
// parent writer's, upgraded — may join at a rank the bytes choose.
// The last byte picks the ranges the merge may hand out whole: any,
// none (nil), those inside one window of 1–16 ticks, or those of at
// most 0–7 ticks' span.
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
	c := mergeCase{minT: int64(byteAt()%44) - 2, pieces: map[*tsfile.ValueStats]func() ([]int64, []float64, error){}}
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
			chunks := overlapping(fh, string(rune('a'+i)), c.minT, c.maxT)
			c.addPieces(fh, chunks)
			c.srcs = append(c.srcs, newFileSource(fh, chunks, c.minT, c.maxT))
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
		chunks := overlapping(l.fh, l.sensor, c.minT, c.maxT)
		c.addPieces(l.fh, chunks)
		c.srcs = slices.Insert(c.srcs, at, newFileSource(l.fh, chunks, c.minT, c.maxT))
		c.raw = slices.Insert(c.raw, at, run)
	}
	switch byteAt() % 4 {
	case 0:
		c.accept = func(lo, hi int64) bool { return true }
	case 2:
		w := int64(1 + byteAt()%16)
		c.accept = func(lo, hi int64) bool {
			return winagg.WindowStart(c.minT, lo, w) == winagg.WindowStart(c.minT, hi, w)
		}
	case 3:
		span := int64(byteAt() % 8)
		c.accept = func(lo, hi int64) bool { return hi-lo <= span }
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

// checkRunMerge drains the merge, decoding each whole chunk or block
// it hands out, and checks the stream against referenceMerge: each
// whole piece must be one the caller accepted, inside the range, and
// hold exactly the reference's records in its range.
func checkRunMerge(t *testing.T, data []byte, legacy []legacyRun) {
	c := buildMergeCase(t, data, legacy)
	want := referenceMerge(c.raw, c.minT, c.maxT)
	m := newMerge(c.srcs, c.accept)
	var got []TV
	for {
		ts, vs, whole, err := m.next()
		if err != nil {
			t.Fatal(err)
		}
		if whole.Count > 0 {
			if len(ts) > 0 || c.accept == nil || !c.accept(whole.MinTime, whole.MaxTime) || whole.MinTime < c.minT || whole.MaxTime > c.maxT {
				t.Fatalf("[%d, %d] over %v: merge handed out %d records with whole piece %+v", c.minT, c.maxT, c.raw, len(ts), whole)
			}
			decode, ok := c.pieces[whole.Stats]
			if !ok {
				t.Fatalf("whole piece %+v is no chunk or block of a source", whole)
			}
			if ts, vs, err = decode(); err != nil {
				t.Fatal(err)
			}
			lo, _ := slices.BinarySearchFunc(want, whole.MinTime, func(tv TV, t int64) int { return cmp.Compare(tv.T, t) })
			hi, _ := slices.BinarySearchFunc(want, whole.MaxTime+1, func(tv TV, t int64) int { return cmp.Compare(tv.T, t) })
			if len(ts) != whole.Count || hi-lo != len(ts) {
				t.Fatalf("[%d, %d] over %v: whole piece %+v decodes to %v, reference holds %v in its range",
					c.minT, c.maxT, c.raw, whole, ts, want[lo:hi])
			}
		} else if len(ts) == 0 {
			break
		}
		if len(vs) != len(ts) {
			t.Fatalf("run of %d times and %d values", len(ts), len(vs))
		}
		for i := range ts {
			got = append(got, TV{ts[i], vs[i]})
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("[%d, %d] over %v:\nmerge     %v\nreference %v", c.minT, c.maxT, c.raw, got, want)
	}
}

// legacyRun is one sensor of an upgraded fixture a parent writer wrote.
type legacyRun struct {
	fh     *fileHandle
	sensor string
}

// openLegacyFixtures opens upgraded copies (tsfile.Upgrade) of the
// fixtures parent tsfile writers left, described at parentAnswers:
// file sources read strict files only.
func openLegacyFixtures(t testing.TB) []legacyRun {
	var runs []legacyRun
	for name, sensors := range parentAnswers {
		old, err := tsfile.Open(filepath.Join("..", "tsfile", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		w, err := tsfile.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		err = tsfile.Upgrade(old, w)
		old.Close()
		if err != nil {
			t.Fatal(err)
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
		for sensor := range sensors {
			runs = append(runs, legacyRun{fh, sensor})
		}
	}
	slices.SortFunc(runs, func(a, b legacyRun) int {
		return cmp.Or(cmp.Compare(filepath.Base(a.fh.path), filepath.Base(b.fh.path)), cmp.Compare(a.sensor, b.sensor))
	})
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
// overlapping and disjoint runs, equal timestamps across ranks, and
// runs drawn from the upgraded copies of the parent-written fixtures.
func FuzzRunMerge(f *testing.F) {
	legacy := openLegacyFixtures(f)
	f.Add([]byte{0, 43, 5, 0, 15, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 3, 1, 2, 1, 0})
	f.Add([]byte{2, 30, 3, 1, 6, 9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 1, 2, 0, 1, 1})
	// A newer file's one-block chunk [1, 2] in the gap of an older
	// file's block {0, 3}: it comes out whole, as a chunk.
	f.Add([]byte{2, 43, 1, 1, 2, 10, 0, 11, 0, 1, 1, 3, 0, 2, 20, 2, 21, 0, 1, 1, 3, 0, 0})
	// The newer chunk {1, 2 | 5, 6} in 2-point blocks over the same
	// older block, 8-tick windows: the chunk overlaps the older
	// block's 3, so each of its blocks comes out whole on its own.
	f.Add([]byte{2, 43, 1, 1, 4, 10, 0, 11, 2, 12, 0, 13, 0, 1, 3, 1, 0, 2, 20, 2, 21, 0, 1, 1, 3, 0, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRunMerge(t, data, legacy)
	})
}

// TestFileSourceRunsStrictlyIncrease drains file sources over the
// upgraded fixtures run by run, over their whole range and over ranges
// starting or ending inside them: across runs, as inside one, times
// strictly increase, and the records are parentAnswers' — the first of
// each equal-timestamp run the parent writers left, also for "b"'s run
// straddling its first block edge and for "c" and "d"'s chunks opening
// on their predecessor's last time.
func TestFileSourceRunsStrictlyIncrease(t *testing.T) {
	for _, l := range openLegacyFixtures(t) {
		all := parentAnswers[filepath.Base(l.fh.path)][l.sensor]
		for _, r := range [][2]int64{{math.MinInt64, math.MaxInt64}, {6, 12}, {8, 14}, {1, 399}} {
			var want []TV
			for _, tv := range all {
				if tv.T >= r[0] && tv.T <= r[1] {
					want = append(want, tv)
				}
			}
			s := newFileSource(l.fh, overlapping(l.fh, l.sensor, r[0], r[1]), r[0], r[1])
			var got []TV
			for len(s.pending) > 0 {
				if err := s.decode(); err != nil {
					t.Fatal(err)
				}
				for i, tm := range s.times {
					got = append(got, TV{tm, s.values[i]})
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s %s %v: runs %v, want %v", filepath.Base(l.fh.path), l.sensor, r, got, want)
			}
		}
	}
}

// TestPointsBoundCountsTheRange: before anything is decoded, a pending
// block counts for at most one record per tick of its overlap with the
// source's range, so a narrow query over a wide block sizes its reply
// by the range — also over the whole int64 range, where the tick count
// does not fit an int64.
func TestPointsBoundCountsTheRange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wide.gtsf")
	writeRuns(t, path, chunkRun{"s", span(0, 4096), func(x int64) float64 { return float64(x) }})
	r, err := tsfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fh := newFileHandle(path, r, false)
	defer fh.release()
	for _, c := range []struct{ minT, maxT, want int64 }{
		{5000, 5015, 0},
		{1000, 1015, 16},
		{4090, 5000, 6},
		{-10, 0, 1},
		{math.MinInt64, math.MaxInt64, 4096},
	} {
		srcs := []*source{newFileSource(fh, overlapping(fh, "s", c.minT, c.maxT), c.minT, c.maxT)}
		if got := pointsBound(srcs); int64(got) != c.want {
			t.Fatalf("[%d, %d]: bound %d, want %d", c.minT, c.maxT, got, c.want)
		}
	}
}
