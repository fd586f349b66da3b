package tvlist

import (
	"math"
	"slices"
)

// tailFraction bounds an image's tail: once a Resolve leaves the tail
// longer than Base/tailFraction, it folds the tail into a new Base.
// Every query then sorts only the writes since the last publish and
// copies at most Base/tailFraction records to keep its tail, while the
// whole base is copied once per Base/tailFraction writes. A larger
// fraction copies the base more often, a smaller one the tail.
// BenchmarkQueryWorkingChunk (internal/engine) times 8, 16 and 32
// within 3 % of each other, 4 and 64 slower; 8 allocates the least.
const tailFraction = 8

// Run is a sorted run of records: its times strictly increase, one
// record per timestamp. A run inside a published Image is never
// mutated.
type Run[V any] struct {
	Times  []int64
	Values []V
}

// Len returns the number of records.
func (r Run[V]) Len() int { return len(r.Times) }

// Range returns the run's records with minT <= t <= maxT, aliasing the
// run.
func (r Run[V]) Range(minT, maxT int64) Run[V] {
	lo, _ := slices.BinarySearch(r.Times, minT)
	hi := len(r.Times)
	if maxT < math.MaxInt64 {
		hi, _ = slices.BinarySearch(r.Times, maxT+1)
		hi = max(lo, hi)
	}
	return Run[V]{r.Times[lo:hi], r.Values[lo:hi]}
}

// Image is a sorted image of a list's first N writes as two runs. Tail
// holds later writes than Base: on a timestamp both hold, Tail's
// record is the newer write and wins.
type Image[V any] struct {
	Base, Tail Run[V]
	N          int
}

// View is a capture of a contiguous list (Capture): the sorted image
// in effect and the writes made after it.
type View[V any] struct {
	img    *Image[V]
	pub    *Image[V] // the published image at capture, the publish CAS's old value
	times  []int64   // writes [img.N, Len) in arrival order, aliasing the live array
	values []V
	list   *TVList[V]
}

// Capture returns a view of the list as it stands, in O(1): the newest
// published image — before the first, the live array's own in-order
// prefix, which is every write while all arrived strictly in order —
// and the writes after it, which alias the live array. Nothing is
// copied: no code rewrites a record of a list that is captured, and
// Put writes only at Len (growing into a new array, never changing the
// old one), so every slice a view holds stays valid. The caller
// serializes Capture with Put; the view itself is used without a lock.
// The list must be contiguous and, while views of it are in use, never
// sorted in place (EnsureSorted, EnsureSortedFlat).
func (l *TVList[V]) Capture() View[V] {
	if !l.contiguous {
		panic("tvlist: Capture of a blocked list")
	}
	pub := l.image.Load()
	img := pub
	if img == nil || img.N < l.inorder {
		k := l.inorder
		if 2*k < l.size {
			k = 0 // a short prefix costs less to sort again than to merge
		}
		img = &Image[V]{N: k}
		if k > 0 {
			img.Base = Run[V]{l.times[0][:k:k], l.values[0][:k:k]}
		}
	}
	v := View[V]{img: img, pub: pub, list: l}
	if l.size > img.N {
		v.times = l.times[0][img.N:l.size:l.size]
		v.values = l.values[0][img.N:l.size:l.size]
	}
	return v
}

// Unsorted returns how many captured writes the view's image does not
// cover: the records Resolve has to sort.
func (v View[V]) Unsorted() int { return len(v.times) }

// Resolve returns a sorted image of every write the view captured. It
// copies the writes after the captured image into a contiguous list,
// has sort order it in place (stably: equal timestamps keep their
// arrival order), keeps the last record per timestamp and merges the
// result into the image's tail, the new writes winning ties. When fold
// is set, or the tail outgrows Base/tailFraction, the tail is merged
// into a new Base instead. The new image's runs are fresh arrays or
// runs of the captured image, which no one mutates; it is published
// by compare-and-swap, and when another view published first, it
// still answers its caller but is dropped. sort is not called when
// the view has no writes past its image.
func (v View[V]) Resolve(sort func(*TVList[V]), fold bool) *Image[V] {
	img := v.img
	if len(v.times) == 0 && (!fold || img.Tail.Len() == 0) {
		return img
	}
	next := &Image[V]{Base: img.Base, Tail: img.Tail, N: img.N + len(v.times)}
	if len(v.times) > 0 {
		c := fromSlices(slices.Clone(v.times), slices.Clone(v.values))
		sort(c)
		ts, vs := lastPerTime(c.times[0][:c.size], c.values[0][:c.size])
		next.Tail = mergeRuns(img.Tail, Run[V]{ts, vs})
	}
	if fold || next.Tail.Len()*tailFraction > next.Base.Len() {
		next.Base, next.Tail = mergeRuns(next.Base, next.Tail), Run[V]{}
	}
	v.list.image.CompareAndSwap(v.pub, next)
	return next
}

// fromSlices wraps columns as a contiguous list, its sorted flag set
// from them.
func fromSlices[V any](ts []int64, vs []V) *TVList[V] {
	l := NewContiguous[V]()
	l.times, l.values, l.size, l.arrayLen = [][]int64{ts}, [][]V{vs}, len(ts), max(len(ts), 1)
	for _, t := range ts {
		if t < l.maxTime {
			l.sorted = false
		}
		l.minTime, l.maxTime = min(l.minTime, t), max(l.maxTime, t)
	}
	return l
}

// lastPerTime keeps, in place, the last record of each
// equal-timestamp run of sorted columns.
func lastPerTime[V any](ts []int64, vs []V) ([]int64, []V) {
	n := 0
	for i := range ts {
		if i+1 < len(ts) && ts[i+1] == ts[i] {
			continue
		}
		ts[n], vs[n] = ts[i], vs[i]
		n++
	}
	return ts[:n], vs[:n]
}

// mergeRuns merges two runs into fresh arrays, newer winning equal
// timestamps. It gallops both ways: the records of one run that lie
// below the other's head are found by exponential search and copied
// whole, so runs that interleave little — a sorted tail against its
// base, where Prop. 4 bounds the overlap by the delay tail — cost
// little beyond the copy. An empty side returns the other run as it
// is.
func mergeRuns[V any](older, newer Run[V]) Run[V] {
	if newer.Len() == 0 {
		return older
	}
	if older.Len() == 0 {
		return newer
	}
	n := older.Len() + newer.Len()
	ts, vs := make([]int64, 0, n), make([]V, 0, n)
	i, j := 0, 0
	for i < older.Len() && j < newer.Len() {
		k := i + gallop(older.Times[i:], newer.Times[j])
		ts, vs = append(ts, older.Times[i:k]...), append(vs, older.Values[i:k]...)
		if i = k; i == older.Len() {
			break
		}
		k = j + gallop(newer.Times[j:], older.Times[i])
		if k < newer.Len() && newer.Times[k] == older.Times[i] {
			i, k = i+1, k+1 // newer's record replaces older's
		}
		ts, vs = append(ts, newer.Times[j:k]...), append(vs, newer.Values[j:k]...)
		j = k
	}
	ts, vs = append(ts, older.Times[i:]...), append(vs, older.Values[i:]...)
	ts, vs = append(ts, newer.Times[j:]...), append(vs, newer.Values[j:]...)
	return Run[V]{ts, vs}
}

// gallop returns the first index of the ascending times whose time is
// >= t, probing 1, 2, 4, … records ahead before a binary search, so
// the cost grows with the distance to the answer, not with len(times).
func gallop(times []int64, t int64) int {
	hi := 1
	for hi <= len(times) && times[hi-1] < t {
		hi *= 2
	}
	lo := hi / 2
	hi = min(hi, len(times))
	k, _ := slices.BinarySearch(times[lo:hi], t)
	return lo + k
}
