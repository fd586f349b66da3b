package core

// DefaultInitialBlockSize is L0 of Algorithm 1. The paper's parameter
// tuning (Section VI-B) finds the optimal block size is almost always
// greater than 4, so starting at 4 cannot skip past it while still
// avoiding the insertion-sort degeneration of tiny blocks.
const DefaultInitialBlockSize = 4

// DefaultThreshold is the empirical interval inversion ratio threshold
// Θ̃ = 0.04 fixed in Section VI-B: block doubling stops once the
// down-sampled IIR falls below it.
const DefaultThreshold = 0.04

// Options configures BackwardSort. The zero value selects the paper's
// defaults.
type Options struct {
	// InitialBlockSize is L0 (default DefaultInitialBlockSize).
	InitialBlockSize int
	// Threshold is Θ (default DefaultThreshold).
	Threshold float64
	// FixedBlockSize, when positive, skips the set-block-size search
	// and uses the given L directly. The paper's parameter-tuning
	// experiment (Figure 8b) drives this.
	FixedBlockSize int
}

func (o Options) withDefaults() Options {
	if o.InitialBlockSize <= 0 {
		o.InitialBlockSize = DefaultInitialBlockSize
	}
	if o.Threshold <= 0 {
		o.Threshold = DefaultThreshold
	}
	return o
}

// Trace reports what one BackwardSort invocation did; the experiment
// harness uses it to study block-size selection and overlap lengths.
type Trace struct {
	// BlockSize is the L the sort ran with.
	BlockSize int
	// SearchIterations is how many while-loop iterations the
	// set-block-size phase took (P in Table I).
	SearchIterations int
	// Blocks is B = ceil(N/L).
	Blocks int
	// Merges counts block boundaries that actually required a merge.
	Merges int
	// OverlapTotal sums the suffix overlap lengths q across merges;
	// OverlapTotal/Merges estimates Q of Proposition 4.
	OverlapTotal int64
	// TailTotal sums the block tail lengths moved to scratch.
	TailTotal int64
	// MaxOverlap is the largest single merge overlap observed.
	MaxOverlap int
}

// BackwardSort sorts s by timestamp using Algorithm 1 of the paper:
// set block size, sort by blocks, backward merge. It returns a Trace
// describing the run. It sorts blocks with the paper's Quicksort, so
// equal timestamps come out in Quicksort's tie order; SortFlat is the
// stable kernel.
//
// Complexity (Section IV): O(n/L0) to set the block size
// (Proposition 3), O(n log L) to sort blocks, and O(n·Q/L) to merge,
// where Q is the expected overlap between adjacent sorted blocks
// (E[Q] ≤ E[Δτ | Δτ ≥ 0], Proposition 4). With L=1 it degenerates to
// straight insertion sort, with L=n to Quicksort (Proposition 5).
func BackwardSort(s Sortable, opts Options) Trace {
	opts = opts.withDefaults()
	n := s.Len()
	var tr Trace
	if n < 2 {
		tr.BlockSize = n
		return tr
	}

	// Phase 1: set block size (Algorithm 1 lines 1-8).
	L := opts.FixedBlockSize
	if L <= 0 {
		L, tr.SearchIterations = setBlockSize(s, opts.InitialBlockSize, opts.Threshold)
	}
	if L > n {
		L = n
	}
	if L < 1 {
		L = 1
	}
	tr.BlockSize = L

	// Phase 2: sort by blocks with the paper's Quicksort (lines 9-12).
	// The final partial block is sorted as its own (shorter) block.
	tr.Blocks = (n + L - 1) / L
	for lo := 0; lo < n; lo += L {
		QuicksortRange(s, lo, min(lo+L, n))
	}

	// Phase 3: backward merge (lines 13-16).
	backwardMerge(s, n, L, &tr)
	return tr
}

// setBlockSize runs the shared block-size search (search.go) over the
// Sortable's timestamp accessor.
func setBlockSize(s Sortable, l0 int, theta float64) (L, iterations int) {
	return searchBlockSize(s.Len(), s.Time, l0, theta)
}

// backwardMerge walks block boundaries from the last one backwards.
// Invariant: the suffix [blockEnd, n) is fully sorted. For each block
// the overlap with the suffix is located by binary search and only the
// overlapping records move: the block tail is parked in scratch and
// merged with the suffix head in place. Searching the whole sorted
// suffix subsumes findOverlappedBlock (line 14): a tail overlapping k
// blocks ahead simply yields a larger q.
func backwardMerge(s Sortable, n, L int, tr *Trace) {
	if L >= n {
		return
	}
	// Last block boundary: start of the final (possibly partial)
	// block, then walk backwards in steps of L.
	lastStart := ((n - 1) / L) * L
	var tailTimes []int64 // reused across merges
	for blockEnd := lastStart; blockEnd >= L; blockEnd -= L {
		blockMax := s.Time(blockEnd - 1)
		suffixHead := s.Time(blockEnd)
		if blockMax <= suffixHead {
			continue // no overlap: already in order across the boundary
		}
		// q: suffix records strictly smaller than the block max must
		// participate in the merge.
		q := lowerBoundSuffix(s, blockEnd, n, blockMax)
		// a: block records with time <= suffixHead stay in place;
		// the tail [a, blockEnd) merges.
		a := upperBoundBlock(s, blockEnd-L, blockEnd, suffixHead)
		r := blockEnd - a
		// Geometric growth: a run of ever-larger overlaps costs O(log)
		// reallocations, where exact-fit sizing would pay one per merge.
		tailTimes = growInt64(tailTimes, r)
		mergeOverlap(s, a, blockEnd, q, tailTimes)
		tr.Merges++
		tr.OverlapTotal += int64(q)
		tr.TailTotal += int64(r)
		if q > tr.MaxOverlap {
			tr.MaxOverlap = q
		}
	}
}

// lowerBoundSuffix returns the count of records in the sorted suffix
// [start, n) with time strictly less than key.
func lowerBoundSuffix(s Sortable, start, n int, key int64) int {
	lo, hi := start, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.Time(mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - start
}

// upperBoundBlock returns the first index in the sorted block
// [lo, hi) whose time is strictly greater than key.
func upperBoundBlock(s Sortable, lo, hi int, key int64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.Time(mid) <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mergeOverlap merges the sorted block tail [a, blockEnd) with the
// sorted suffix head [blockEnd, blockEnd+q) in place, buffering
// whichever side is smaller — the paper's backward merge parks only
// the overlapping points in extra space (Section III-B), so when a
// single delayed record overlaps a long tail the merge costs ~tail+2
// moves, not 2·tail. Every record left of a and right of blockEnd+q is
// already in final position.
func mergeOverlap(s Sortable, a, blockEnd, q int, keys []int64) {
	r := blockEnd - a
	if r == 0 || q == 0 {
		return
	}
	if r <= q {
		mergeOverlapLo(s, a, blockEnd, q, keys[:r])
	} else {
		mergeOverlapHi(s, a, blockEnd, q, keys[:q])
	}
}

// mergeOverlapLo buffers the block tail (the smaller side) and merges
// forward.
func mergeOverlapLo(s Sortable, a, blockEnd, q int, tailTimes []int64) {
	r := blockEnd - a
	s.EnsureScratch(r)
	for i := 0; i < r; i++ {
		tailTimes[i] = s.Time(a + i)
		s.Save(a+i, i)
	}
	dst := a
	i, j := 0, blockEnd // i over scratch slots, j over suffix records
	end := blockEnd + q
	for i < r && j < end {
		if tailTimes[i] <= s.Time(j) {
			s.Restore(i, dst)
			i++
		} else {
			s.Move(j, dst)
			j++
		}
		dst++
	}
	for i < r {
		s.Restore(i, dst)
		i++
		dst++
	}
	// Remaining suffix records [j, end) are already in place: once the
	// scratch drains, dst == j.
}

// mergeOverlapHi buffers the suffix overlap (the smaller side) and
// merges backward.
func mergeOverlapHi(s Sortable, a, blockEnd, q int, overlapTimes []int64) {
	r := blockEnd - a
	s.EnsureScratch(q)
	for i := 0; i < q; i++ {
		overlapTimes[i] = s.Time(blockEnd + i)
		s.Save(blockEnd+i, i)
	}
	dst := blockEnd + q - 1
	i, j := q-1, blockEnd-1 // i over scratch slots, j over tail records
	lo := blockEnd - r
	for i >= 0 && j >= lo {
		if overlapTimes[i] >= s.Time(j) {
			s.Restore(i, dst)
			i--
		} else {
			s.Move(j, dst)
			j--
		}
		dst--
	}
	for i >= 0 {
		s.Restore(i, dst)
		i--
		dst--
	}
	// Remaining tail records [lo, j] are already in place: once the
	// scratch drains, dst == j.
}
