package core

import "sync"

// This file is the monomorphized fast path of Backward-Sort: the same
// three phases as BackwardSort (set block size / sort by blocks /
// backward merge), specialized to contiguous []int64 / []V slices.
// Every s.Time(i) of the interface path is an indexed load here, every
// Swap/Move/Save/Restore a pair of slice assignments — no interface
// dispatch, no i/arrayLen+i%arrayLen block arithmetic.

// FlatOptions configures SortFlat. The zero value selects the paper's
// defaults; the search always starts at L0 = DefaultInitialBlockSize.
type FlatOptions struct {
	// Threshold is Θ (default DefaultThreshold).
	Threshold float64
	// FixedBlockSize, when positive, skips the set-block-size search
	// and uses the given L directly.
	FixedBlockSize int
}

func (o FlatOptions) withDefaults() FlatOptions {
	if o.Threshold <= 0 {
		o.Threshold = DefaultThreshold
	}
	return o
}

// flatScratch is the pooled merge scratch of the flat kernel: the
// parked block tail (or suffix overlap), keys and values side by side.
type flatScratch[V any] struct {
	t []int64
	v []V
}

// flatScratchPool recycles merge scratch across sorts — and, because
// it is package-level, across every flush worker and query goroutine
// in the process, so steady-state sorting allocates nothing. The pool
// stores mixed instantiations; a Get that surfaces a scratch of
// another value type drops it (a process overwhelmingly sorts one
// value type, so mismatches are startup noise, not churn).
var flatScratchPool sync.Pool

func getFlatScratch[V any]() *flatScratch[V] {
	if x := flatScratchPool.Get(); x != nil {
		if s, ok := x.(*flatScratch[V]); ok {
			return s
		}
	}
	return &flatScratch[V]{}
}

func putFlatScratch[V any](s *flatScratch[V]) {
	clear(s.v) // drop value references so pooling cannot pin them
	flatScratchPool.Put(s)
}

// growInt64 returns s resized to n, growing geometrically so a
// sequence of ever-larger requests costs O(log) reallocations, not one
// each. Contents are not preserved across a reallocation.
func growInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		c := 2 * cap(s)
		if c < n {
			c = n
		}
		s = make([]int64, c)
	}
	return s[:n]
}

// growSlice is growInt64 for the value side.
func growSlice[V any](s []V, n int) []V {
	if cap(s) < n {
		c := 2 * cap(s)
		if c < n {
			c = n
		}
		s = make([]V, c)
	}
	return s[:n]
}

// SortFlat sorts the parallel slices by timestamp using Backward-Sort,
// specialized to contiguous storage. It panics if the lengths differ.
// The sort is stable: records with equal timestamps keep their input
// order. The Trace it returns is identical to what BackwardSort would
// report on the same input: the phases that set the block size and
// merge backward are the same, and Trace counts only those.
func SortFlat[V any](times []int64, values []V, opts FlatOptions) Trace {
	if len(times) != len(values) {
		panic("core: times and values length mismatch")
	}
	opts = opts.withDefaults()
	n := len(times)
	var tr Trace
	if n < 2 {
		tr.BlockSize = n
		return tr
	}

	// Phase 1: set block size (Algorithm 1 lines 1-8).
	L := opts.FixedBlockSize
	if L <= 0 {
		L, tr.SearchIterations = setBlockSizeFlat(times, DefaultInitialBlockSize, opts.Threshold)
	}
	if L > n {
		L = n
	}
	if L < 1 {
		L = 1
	}
	tr.BlockSize = L
	tr.Blocks = (n + L - 1) / L

	// Phase 2: sort by blocks (lines 9-12), stably, so equal
	// timestamps keep their arrival order through the whole sort.
	sc := getFlatScratch[V]()
	for lo := 0; lo < n; lo += L {
		sortBlockFlat(times, values, lo, min(lo+L, n), sc)
	}

	// Phase 3: backward merge (lines 13-16).
	backwardMergeFlat(times, values, L, sc, &tr)
	putFlatScratch(sc)
	return tr
}

// setBlockSizeFlat runs the shared block-size search (search.go) over
// a flat timestamp slice.
func setBlockSizeFlat(times []int64, l0 int, theta float64) (L, iterations int) {
	return searchBlockSize(len(times), func(i int) int64 { return times[i] }, l0, theta)
}

// runLen is the length of the runs sortBlockFlat insertion-sorts
// before merging them.
const runLen = 16

// sortBlockFlat stably sorts the block [lo, hi): insertion-sorted runs
// of runLen, merged bottom-up by the same stable merge the backward
// phase uses. It replaces the paper's per-block Quicksort ("used in
// default and can be substituted", Section III-B), which is not
// stable.
func sortBlockFlat[V any](t []int64, v []V, lo, hi int, sc *flatScratch[V]) {
	for r := lo; r < hi; r += runLen {
		insertionSortFlat(t, v, r, min(r+runLen, hi))
	}
	for w := runLen; w < hi-lo; w *= 2 {
		for mid := lo + w; mid < hi; mid += 2 * w {
			if t[mid-1] > t[mid] {
				mergeRunsFlat(t, v, mid-w, mid, min(mid+w, hi), sc)
			}
		}
	}
}

// insertionSortFlat shifts displaced records right while the record in
// flight sits in two locals — the flat path needs no scratch slot at
// all for insertion.
func insertionSortFlat[V any](t []int64, v []V, lo, hi int) {
	for i := lo + 1; i < hi; i++ {
		key := t[i]
		if key >= t[i-1] {
			continue
		}
		val := v[i]
		j := i
		for j > lo && t[j-1] > key {
			t[j] = t[j-1]
			v[j] = v[j-1]
			j--
		}
		t[j] = key
		v[j] = val
	}
}

// backwardMergeFlat is backwardMerge on flat slices, merging through
// the caller's scratch. Same invariant: the suffix right of blockEnd
// is fully sorted; only overlapping records move.
func backwardMergeFlat[V any](t []int64, v []V, L int, sc *flatScratch[V], tr *Trace) {
	n := len(t)
	lastStart := ((n - 1) / L) * L
	for blockEnd := lastStart; blockEnd >= L; blockEnd -= L {
		if t[blockEnd-1] <= t[blockEnd] {
			continue // no overlap across the boundary
		}
		q, r := mergeRunsFlat(t, v, blockEnd-L, blockEnd, n, sc)
		tr.Merges++
		tr.OverlapTotal += int64(q)
		tr.TailTotal += int64(r)
		if q > tr.MaxOverlap {
			tr.MaxOverlap = q
		}
	}
}

// mergeRunsFlat stably merges the sorted adjacent runs [lo, mid) and
// [mid, hi), which overlap (t[mid-1] > t[mid]), in place. Only the
// overlap moves: the r records of the first run above the second
// run's head and the q records of the second run below the first
// run's max, whichever side is smaller parked in scratch. It returns q
// and r.
func mergeRunsFlat[V any](t []int64, v []V, lo, mid, hi int, sc *flatScratch[V]) (q, r int) {
	q = lowerBoundFlat(t, mid, hi, t[mid-1])
	a := upperBoundFlat(t, lo, mid, t[mid])
	r = mid - a
	if r <= q {
		mergeOverlapLoFlat(t, v, a, mid, q, sc)
	} else {
		mergeOverlapHiFlat(t, v, a, mid, q, sc)
	}
	return q, r
}

// lowerBoundFlat counts records in the sorted suffix [start, n) with
// time strictly less than key. The overlap is delay-bounded and almost
// always tiny relative to the suffix, so it gallops out from the
// boundary — O(log overlap) probes that stay in cache — instead of
// bisecting the whole (cold) suffix.
func lowerBoundFlat(t []int64, start, n int, key int64) int {
	if start >= n || t[start] >= key {
		return 0
	}
	off := 1
	for start+off < n && t[start+off] < key {
		off <<= 1
	}
	lo := start + off>>1 + 1
	hi := start + off
	if hi > n {
		hi = n
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - start
}

// upperBoundFlat returns the first index in the sorted range [lo, hi)
// whose time is strictly greater than key. The block tail that
// overlaps the suffix is small for the same delay-bound reason, so it
// gallops backward from hi.
func upperBoundFlat(t []int64, lo, hi int, key int64) int {
	if lo >= hi {
		return lo
	}
	if t[hi-1] <= key {
		return hi
	}
	off := 1
	for hi-1-off >= lo && t[hi-1-off] > key {
		off <<= 1
	}
	if l := hi - off; l > lo {
		lo = l
	}
	hi -= off >> 1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mergeOverlapLoFlat parks the block tail [a, blockEnd) (the smaller
// side) in scratch and merges forward with the suffix head.
func mergeOverlapLoFlat[V any](t []int64, v []V, a, blockEnd, q int, sc *flatScratch[V]) {
	r := blockEnd - a
	sc.t = growInt64(sc.t, r)
	sc.v = growSlice(sc.v, r)
	copy(sc.t, t[a:blockEnd])
	copy(sc.v, v[a:blockEnd])
	dst := a
	i, j := 0, blockEnd
	end := blockEnd + q
	for i < r && j < end {
		if sc.t[i] <= t[j] {
			t[dst] = sc.t[i]
			v[dst] = sc.v[i]
			i++
		} else {
			t[dst] = t[j]
			v[dst] = v[j]
			j++
		}
		dst++
	}
	for i < r {
		t[dst] = sc.t[i]
		v[dst] = sc.v[i]
		i++
		dst++
	}
	// Remaining suffix records [j, end) are already in place.
}

// mergeOverlapHiFlat parks the suffix overlap [blockEnd, blockEnd+q)
// (the smaller side) in scratch and merges backward with the tail.
func mergeOverlapHiFlat[V any](t []int64, v []V, a, blockEnd, q int, sc *flatScratch[V]) {
	r := blockEnd - a
	sc.t = growInt64(sc.t, q)
	sc.v = growSlice(sc.v, q)
	copy(sc.t, t[blockEnd:blockEnd+q])
	copy(sc.v, v[blockEnd:blockEnd+q])
	dst := blockEnd + q - 1
	i, j := q-1, blockEnd-1
	lo := blockEnd - r
	for i >= 0 && j >= lo {
		if sc.t[i] >= t[j] {
			t[dst] = sc.t[i]
			v[dst] = sc.v[i]
			i--
		} else {
			t[dst] = t[j]
			v[dst] = v[j]
			j--
		}
		dst--
	}
	for i >= 0 {
		t[dst] = sc.t[i]
		v[dst] = sc.v[i]
		i--
		dst--
	}
	// Remaining tail records [lo, j] are already in place.
}
