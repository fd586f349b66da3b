// Package tvlist implements Apache IoTDB's in-memory time/value column
// (Section V-B of the paper): a List<Array> structure — timestamps and
// values stored in parallel lists of fixed-size arrays, the
// deque-style compromise between per-point allocation and one huge
// buffer. The array size is configurable with IoTDB's default of 32.
// The same type also has a contiguous layout (NewContiguous): one
// (times, values) pair grown 2× at a time. Serving engines store that
// layout; the paper profile keeps List<Array>.
//
// A TVList implements core.Sortable, so any sorting algorithm in this
// repository (Backward-Sort included) sorts it in place without
// copying records out, exactly as the sort interface abstraction of
// the paper's Section V-C intends. Like IoTDB's implementation, the
// list tracks whether appended data is already in time order so that
// flush and query paths can skip sorting entirely. The paper profile
// sorts its lists this way, in place under the engine lock.
//
// A serving list is never sorted in place: it is an append-only live
// array plus one immutable sorted image of its first N writes, held
// behind an atomic pointer (run.go). Capture takes, in O(1), the image
// and the writes after it; Resolve sorts only those writes — Prop. 4
// bounds their overlap with the image by the delay tail — and
// publishes the result, so the next reader starts from it. While
// writes arrive strictly in order the live array's prefix is the image
// and nothing is copied.
//
// Equal timestamps are decided here, once: a sorted list yields the
// last record of each equal-timestamp run (LastPerTime, Resolve) — the
// newest write after a stable sort, otherwise whichever record the
// sorting algorithm's tie order put last.
package tvlist

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
)

// DefaultArrayLen is IoTDB's default TVList array size.
const DefaultArrayLen = 32

// TVList is a (time, value) column, blocked or contiguous. The zero
// value is not usable; construct with New, NewWithArrayLen or
// NewContiguous.
type TVList[V any] struct {
	times  [][]int64
	values [][]V
	size   int
	// arrayLen is the length of every backing array. A contiguous list
	// has at most one array and arrayLen is its length: Put doubles that
	// array instead of appending another, so the blocked index
	// arithmetic (i/arrayLen, i%arrayLen) holds for both layouts.
	arrayLen   int
	contiguous bool

	scratchT []int64
	scratchV []V

	sorted  bool
	minTime int64
	maxTime int64

	// inorder counts the leading records whose times strictly
	// increase: while it equals size, every write so far arrived in
	// order and the live array is its own sorted run.
	inorder int
	// image is the newest sorted image a Resolve published (run.go).
	image atomic.Pointer[Image[V]]
}

// New creates a TVList with the default array length.
func New[V any]() *TVList[V] { return NewWithArrayLen[V](DefaultArrayLen) }

// NewWithArrayLen creates a TVList whose backing arrays hold n
// records each.
func NewWithArrayLen[V any](n int) *TVList[V] {
	if n <= 0 {
		panic(fmt.Sprintf("tvlist: invalid array length %d", n))
	}
	return &TVList[V]{
		arrayLen: n,
		sorted:   true,
		minTime:  math.MaxInt64,
		maxTime:  math.MinInt64,
	}
}

// NewContiguous creates a TVList stored as one contiguous array pair,
// starting at DefaultArrayLen records and doubling when full.
func NewContiguous[V any]() *TVList[V] {
	l := NewWithArrayLen[V](DefaultArrayLen)
	l.contiguous = true
	return l
}

// Put appends one record. Appends are O(1) amortized: when the last
// array fills, a blocked list allocates another one and a contiguous
// list doubles its one array.
func (l *TVList[V]) Put(t int64, v V) {
	blk, off := l.size/l.arrayLen, l.size%l.arrayLen
	if blk == len(l.times) {
		if l.contiguous && blk == 1 {
			l.grow()
			blk, off = 0, l.size
		} else {
			l.times = append(l.times, make([]int64, l.arrayLen))
			l.values = append(l.values, make([]V, l.arrayLen))
		}
	}
	l.times[blk][off] = t
	l.values[blk][off] = v
	if l.inorder == l.size && (l.size == 0 || t > l.maxTime) {
		l.inorder++
	}
	l.size++
	if t < l.maxTime {
		l.sorted = false
	}
	if t > l.maxTime {
		l.maxTime = t
	}
	if t < l.minTime {
		l.minTime = t
	}
}

// grow doubles a contiguous list's one array.
func (l *TVList[V]) grow() {
	n := 2 * l.arrayLen
	ts := make([]int64, n)
	vs := make([]V, n)
	copy(ts, l.times[0])
	copy(vs, l.values[0])
	l.times[0], l.values[0], l.arrayLen = ts, vs, n
}

// Len implements core.Sortable.
func (l *TVList[V]) Len() int { return l.size }

// Time implements core.Sortable.
func (l *TVList[V]) Time(i int) int64 { return l.times[i/l.arrayLen][i%l.arrayLen] }

// Value returns the value of record i.
func (l *TVList[V]) Value(i int) V { return l.values[i/l.arrayLen][i%l.arrayLen] }

// Get returns record i.
func (l *TVList[V]) Get(i int) (int64, V) {
	blk, off := i/l.arrayLen, i%l.arrayLen
	return l.times[blk][off], l.values[blk][off]
}

// Swap implements core.Sortable.
func (l *TVList[V]) Swap(i, j int) {
	bi, oi := i/l.arrayLen, i%l.arrayLen
	bj, oj := j/l.arrayLen, j%l.arrayLen
	l.times[bi][oi], l.times[bj][oj] = l.times[bj][oj], l.times[bi][oi]
	l.values[bi][oi], l.values[bj][oj] = l.values[bj][oj], l.values[bi][oi]
}

// Move implements core.Sortable.
func (l *TVList[V]) Move(src, dst int) {
	bs, os := src/l.arrayLen, src%l.arrayLen
	bd, od := dst/l.arrayLen, dst%l.arrayLen
	l.times[bd][od] = l.times[bs][os]
	l.values[bd][od] = l.values[bs][os]
}

// EnsureScratch implements core.Sortable. Scratch grows geometrically
// so a sequence of ever-larger merge overlaps costs O(log)
// reallocations instead of one per request.
func (l *TVList[V]) EnsureScratch(n int) {
	if cap(l.scratchT) < n {
		c := 2 * cap(l.scratchT)
		if c < n {
			c = n
		}
		l.scratchT = make([]int64, c)
		l.scratchV = make([]V, c)
	}
	l.scratchT = l.scratchT[:cap(l.scratchT)]
	l.scratchV = l.scratchV[:cap(l.scratchV)]
}

// Save implements core.Sortable.
func (l *TVList[V]) Save(i, slot int) {
	blk, off := i/l.arrayLen, i%l.arrayLen
	l.scratchT[slot] = l.times[blk][off]
	l.scratchV[slot] = l.values[blk][off]
}

// Restore implements core.Sortable.
func (l *TVList[V]) Restore(slot, i int) {
	blk, off := i/l.arrayLen, i%l.arrayLen
	l.times[blk][off] = l.scratchT[slot]
	l.values[blk][off] = l.scratchV[slot]
}

// ScratchTime implements core.ScratchTimer.
func (l *TVList[V]) ScratchTime(slot int) int64 { return l.scratchT[slot] }

// Sorted reports whether the list is known to be in time order.
// It is maintained on Put and set by Sort.
func (l *TVList[V]) Sorted() bool { return l.sorted }

// MinTime returns the smallest timestamp, or math.MaxInt64 when empty.
func (l *TVList[V]) MinTime() int64 { return l.minTime }

// MaxTime returns the largest timestamp, or math.MinInt64 when empty.
func (l *TVList[V]) MaxTime() int64 { return l.maxTime }

// Sort orders the list by timestamp using the given algorithm,
// skipping the work when the list is already known sorted — the same
// shortcut IoTDB's flush and query paths take.
func (l *TVList[V]) Sort(algo func(core.Sortable)) {
	l.EnsureSorted(algo)
}

// EnsureSorted is Sort with a report: it returns true when a sort was
// actually performed and false when the sorted flag let it be skipped.
// The engine uses the return value to count how often the
// flush-then-query (or query-then-flush) path gets its sort for free.
func (l *TVList[V]) EnsureSorted(algo func(core.Sortable)) bool {
	if l.sorted {
		return false
	}
	algo(l)
	l.sortedInPlace()
	return true
}

// sortedInPlace records an in-place sort: the list is sorted, and no
// prefix or published image of its old order stands any more.
func (l *TVList[V]) sortedInPlace() {
	l.sorted = true
	l.inorder = 0
	l.image.Store(nil)
}

// SeekTime returns the first index whose timestamp is >= t. The list
// must be sorted.
func (l *TVList[V]) SeekTime(t int64) int {
	if !l.sorted {
		panic("tvlist: SeekTime on unsorted list")
	}
	lo, hi := 0, l.size
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l.Time(mid) < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ToSlices copies the list out into flat slices.
func (l *TVList[V]) ToSlices() ([]int64, []V) { return l.copyOut(0, l.size) }

// copyOut copies records [lo, hi) out into flat slices.
func (l *TVList[V]) copyOut(lo, hi int) ([]int64, []V) {
	ts, vs := make([]int64, hi-lo), make([]V, hi-lo)
	for i := lo; i < hi; {
		blk, off := i/l.arrayLen, i%l.arrayLen
		n := copy(ts[i-lo:], l.times[blk][off:])
		copy(vs[i-lo:], l.values[blk][off:off+n])
		i += n
	}
	return ts, vs
}

// LastPerTime copies out the records with minT <= t <= maxT, one per
// timestamp: the last of each equal-timestamp run, which after a
// stable sort is the newest write. Memtable and flushing-unit scans
// take their range this way, and a flush its whole columns. The list
// must be sorted.
func (l *TVList[V]) LastPerTime(minT, maxT int64) ([]int64, []V) {
	lo, hi := l.SeekTime(minT), l.size
	if maxT < math.MaxInt64 {
		hi = max(lo, l.SeekTime(maxT+1))
	}
	ts, vs := l.copyOut(lo, hi)
	return lastPerTime(ts, vs)
}

// Clone deep-copies the list (scratch space and published image
// excluded). A contiguous clone holds exactly the live records.
func (l *TVList[V]) Clone() *TVList[V] {
	c := NewWithArrayLen[V](l.arrayLen)
	c.contiguous = l.contiguous
	c.size = l.size
	c.sorted = l.sorted
	c.minTime = l.minTime
	c.maxTime = l.maxTime
	c.inorder = l.inorder
	if l.contiguous {
		if l.size > 0 {
			ts, vs := l.ToSlices()
			c.times, c.values, c.arrayLen = [][]int64{ts}, [][]V{vs}, l.size
		}
		return c
	}
	c.times = make([][]int64, len(l.times))
	c.values = make([][]V, len(l.values))
	for i := range l.times {
		c.times[i] = append([]int64(nil), l.times[i]...)
		c.values[i] = append([]V(nil), l.values[i]...)
	}
	return c
}

// Reset empties the list but keeps its backing arrays for reuse,
// mirroring IoTDB's array recycling between memtable generations. When
// the value type can hold heap references (Text above all), the value
// arrays are zeroed: a recycled list must not pin every string of the
// previous generation until it happens to be overwritten. Scratch is
// cleared under the same rule.
func (l *TVList[V]) Reset() {
	l.size = 0
	l.inorder = 0
	l.image.Store(nil)
	l.sorted = true
	l.minTime = math.MaxInt64
	l.maxTime = math.MinInt64
	if valuesHoldRefs[V]() {
		for _, vs := range l.values {
			clear(vs)
		}
		clear(l.scratchV)
	}
}

// valuesHoldRefs reports whether V may hold heap references that a
// recycled array would pin. The primitive TVList kinds (the common
// case by far) are recognized as reference-free; anything unrecognized
// is conservatively treated as pinning.
func valuesHoldRefs[V any]() bool {
	switch any(*new(V)).(type) {
	case bool, int8, int16, int32, int64, int,
		uint8, uint16, uint32, uint64, uint,
		float32, float64, complex64, complex128:
		return false
	}
	return true
}

// MemoryArrays reports how many backing arrays the list currently
// holds (tests and capacity accounting use it).
func (l *TVList[V]) MemoryArrays() int { return len(l.times) }

// Typed constructors for the concrete TVList kinds Apache IoTDB
// specializes per data type (Section V-A): IoTDB generates a class per
// primitive; Go generics give the same unboxed layout from one
// implementation.

// NewDouble creates a float64-valued TVList (IoTDB's "double").
func NewDouble() *TVList[float64] { return New[float64]() }

// NewText creates a string-valued TVList (IoTDB's "text").
func NewText() *TVList[string] { return New[string]() }

// Compile-time check: TVList satisfies the sorting interfaces.
var (
	_ core.Sortable     = (*TVList[float64])(nil)
	_ core.ScratchTimer = (*TVList[float64])(nil)
)
