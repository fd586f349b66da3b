package tvlist

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
)

// flatSort is the sort the engine hands Resolve outside the paper
// profile: the stable flat kernel, in place on the copy.
func flatSort(c *TVList[float64]) { c.EnsureSortedFlat(core.FlatOptions{}) }

// referenceRun is the contract Resolve must meet: the first n writes,
// stably sorted, the last write per timestamp kept, cut to
// [minT, maxT].
func referenceRun(ts []int64, vs []float64, n int, minT, maxT int64) Run[float64] {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ts[idx[a]] < ts[idx[b]] })
	var out Run[float64]
	for k, i := range idx {
		if k+1 < len(idx) && ts[idx[k+1]] == ts[i] {
			continue
		}
		if ts[i] >= minT && ts[i] <= maxT {
			out.Times, out.Values = append(out.Times, ts[i]), append(out.Values, vs[i])
		}
	}
	return out
}

// answer reads an image over [minT, maxT] as the engine does: its
// tail and base cut to the range, the tail winning equal timestamps.
func answer(img *Image[float64], minT, maxT int64) Run[float64] {
	tail, base := img.Tail.Range(minT, maxT), img.Base.Range(minT, maxT)
	var out Run[float64]
	i, j := 0, 0
	for i < tail.Len() || j < base.Len() {
		switch {
		case j == base.Len() || (i < tail.Len() && tail.Times[i] <= base.Times[j]):
			if j < base.Len() && base.Times[j] == tail.Times[i] {
				j++
			}
			out.Times, out.Values = append(out.Times, tail.Times[i]), append(out.Values, tail.Values[i])
			i++
		default:
			out.Times, out.Values = append(out.Times, base.Times[j]), append(out.Values, base.Values[j])
			j++
		}
	}
	return out
}

// checkImage fails unless img covers n writes, both its runs strictly
// increase, and its answer over [minT, maxT] is the reference's.
func checkImage(t *testing.T, img *Image[float64], ts []int64, vs []float64, n int, minT, maxT int64) {
	t.Helper()
	if img.N != n {
		t.Fatalf("image covers %d writes, want %d", img.N, n)
	}
	for _, r := range []Run[float64]{img.Base, img.Tail} {
		for i := 1; i < r.Len(); i++ {
			if r.Times[i-1] >= r.Times[i] {
				t.Fatalf("run not strictly increasing at %d: %v", i, r.Times)
			}
		}
	}
	got, want := answer(img, minT, maxT), referenceRun(ts, vs, n, minT, maxT)
	if !slices.Equal(got.Times, want.Times) || !slices.Equal(got.Values, want.Values) {
		t.Fatalf("[%d,%d] over %d writes:\ngot  %v %v\nwant %v %v", minT, maxT, n, got.Times, got.Values, want.Times, want.Values)
	}
}

// TestCaptureIsIndependent: a view is not moved by later writes, even
// ones that grow the live array, and resolving it changes no record
// of the live list.
func TestCaptureIsIndependent(t *testing.T) {
	l := NewContiguous[float64]()
	var ts []int64
	var vs []float64
	put := func(t int64) {
		ts, vs = append(ts, t), append(vs, float64(len(ts)))
		l.Put(t, vs[len(vs)-1])
	}
	for _, x := range []int64{5, 3, 9, 3, 1} {
		put(x)
	}
	v := l.Capture()
	for i := 0; i < 3*DefaultArrayLen; i++ { // grows the live array twice
		put(int64(i % 7))
	}
	checkImage(t, v.Resolve(flatSort, false), ts, vs, 5, math.MinInt64, math.MaxInt64)
	checkImage(t, l.Capture().Resolve(flatSort, false), ts, vs, len(ts), math.MinInt64, math.MaxInt64)
	if l.Sorted() {
		t.Fatal("resolving a view marked the live list sorted")
	}
	for i := range ts {
		if tt, vv := l.Get(i); tt != ts[i] || vv != vs[i] {
			t.Fatalf("live record %d is (%d, %v), written (%d, %v)", i, tt, vv, ts[i], vs[i])
		}
	}
}

// TestCaptureInOrderIsLivePrefix: while every write arrives strictly
// in order, the image is the live array's own prefix — no copy, no
// sort — and an out-of-order write leaves the prefix before it as the
// image's base.
func TestCaptureInOrderIsLivePrefix(t *testing.T) {
	l := NewContiguous[float64]()
	for i := int64(0); i < 100; i++ {
		l.Put(i*10, float64(i))
	}
	noSort := func(*TVList[float64]) { t.Fatal("sorted an in-order list") }
	img := l.Capture().Resolve(noSort, true)
	if img.N != 100 || img.Base.Len() != 100 || img.Tail.Len() != 0 || &img.Base.Times[0] != &l.times[0][0] {
		t.Fatalf("in-order image: N %d, base %d, tail %d, aliases live %v",
			img.N, img.Base.Len(), img.Tail.Len(), &img.Base.Times[0] == &l.times[0][0])
	}
	l.Put(5, -1) // late
	l.Put(2000, -2)
	v := l.Capture()
	if v.Unsorted() != 2 {
		t.Fatalf("%d writes past the in-order prefix, want 2", v.Unsorted())
	}
	sorted := 0
	img = v.Resolve(func(c *TVList[float64]) { sorted += c.Len(); flatSort(c) }, false)
	if sorted != 2 || img.N != 102 {
		t.Fatalf("sorted %d records into an image of %d writes, want 2 and 102", sorted, img.N)
	}
}

// TestResolveSortsOnlyNewWrites: a resolve publishes its image, so the
// next capture holds only the writes after it, and a capture with no
// write since the last publish sorts nothing.
func TestResolveSortsOnlyNewWrites(t *testing.T) {
	l := NewContiguous[float64]()
	r := rand.New(rand.NewSource(1))
	var ts []int64
	var vs []float64
	for round := 0; round < 20; round++ {
		for i := 0; i < 50; i++ {
			x := int64(round*100 + r.Intn(150)) // late and repeated times
			ts, vs = append(ts, x), append(vs, float64(len(ts)))
			l.Put(x, vs[len(vs)-1])
		}
		sorted := 0
		count := func(c *TVList[float64]) { sorted += c.Len(); flatSort(c) }
		img := l.Capture().Resolve(count, false)
		if sorted > 50 {
			t.Fatalf("round %d sorted %d records, want at most the 50 new writes", round, sorted)
		}
		checkImage(t, img, ts, vs, len(ts), math.MinInt64, math.MaxInt64)
		sorted = 0
		if again := l.Capture().Resolve(count, false); again != img || sorted != 0 {
			t.Fatalf("round %d: a second resolve sorted %d records (same image %v)", round, sorted, again == img)
		}
		if img.Tail.Len()*tailFraction > img.Base.Len() {
			t.Fatalf("round %d: tail of %d left beside a base of %d", round, img.Tail.Len(), img.Base.Len())
		}
	}
	img := l.Capture().Resolve(flatSort, true)
	if img.Tail.Len() != 0 {
		t.Fatalf("folded image kept a tail of %d", img.Tail.Len())
	}
	checkImage(t, img, ts, vs, len(ts), math.MinInt64, math.MaxInt64)
}

// TestResolveLosesRace: of two views of one image, the first to
// resolve publishes; the other still answers its own writes but its
// image is dropped.
func TestResolveLosesRace(t *testing.T) {
	l := NewContiguous[float64]()
	ts := []int64{4, 2, 8, 6}
	vs := []float64{0, 1, 2, 3}
	for i := range ts[:2] {
		l.Put(ts[i], vs[i])
	}
	older := l.Capture()
	for i := range ts[2:] {
		l.Put(ts[2+i], vs[2+i])
	}
	newer := l.Capture()
	checkImage(t, newer.Resolve(flatSort, false), ts, vs, 4, math.MinInt64, math.MaxInt64)
	checkImage(t, older.Resolve(flatSort, false), ts, vs, 2, math.MinInt64, math.MaxInt64)
	if v := l.Capture(); v.Unsorted() != 0 {
		t.Fatalf("the losing view replaced the newer image: %d writes unsorted", v.Unsorted())
	}
}

// FuzzSortedTail drives a list through random writes — late ones and
// rewrites of one timestamp included — interleaved with captures and
// with resolves of any captured view, in any order, folded or not, over
// random ranges. Every answer must be the stable sort of the view's
// writes with the last record per timestamp, and no step may change a
// record of the live list.
func FuzzSortedTail(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0, 3, 0, 0, 9, 0, 5, 0, 0, 6, 0, 0, 0, 1, 0, 7, 30, 1})
	f.Add([]byte{1, 0, 0, 1, 0, 0, 5, 0, 0, 2, 200, 0, 5, 0, 0, 6, 1, 3, 6, 0, 9, 7, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		l := NewContiguous[float64]()
		var ts []int64
		var vs []float64
		var views []View[float64]
		var sizes []int
		hi := int64(0)
		for ; len(data) >= 3; data = data[3:] {
			op, a, b := data[0]%8, data[1], data[2]
			switch {
			case op <= 4:
				x := int64(a) // in [0, 256): rewrites are common
				if op <= 1 {
					hi += int64(b%4) + 1 // strictly in order
					x = 256 + hi
				}
				ts, vs = append(ts, x), append(vs, float64(len(ts)))
				l.Put(x, vs[len(vs)-1])
			case op == 5:
				views, sizes = append(views, l.Capture()), append(sizes, len(ts))
			default:
				i := len(views) - 1 - int(a)%(len(views)+1)
				v, n := l.Capture(), len(ts)
				if i >= 0 {
					v, n = views[i], sizes[i]
				}
				minT := int64(b) - 8
				checkImage(t, v.Resolve(flatSort, op == 7), ts, vs, n, minT, minT+int64(a)+int64(b)%64*8)
			}
		}
		checkImage(t, l.Capture().Resolve(flatSort, false), ts, vs, len(ts), math.MinInt64, math.MaxInt64)
		for i := range ts {
			if tt, vv := l.Get(i); tt != ts[i] || vv != vs[i] {
				t.Fatalf("live record %d is (%d, %v), written (%d, %v)", i, tt, vv, ts[i], vs[i])
			}
		}
	})
}
