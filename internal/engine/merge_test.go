package engine

import (
	"cmp"
	"math"
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
// 1–4 points, split into two chunks. One of the legacy sensors — a
// parent writer's, upgraded — may join at a rank the bytes choose.
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
			if !slices.Equal(got, want) {
				t.Fatalf("%s %s %v: runs %v, want %v", filepath.Base(l.fh.path), l.sensor, r, got, want)
			}
		}
	}
}
