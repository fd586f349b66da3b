package core

// insertionCutoff is the sub-range size below which QuicksortRange
// switches to insertion sort. Small ranges sort faster by insertion
// and nearly sorted small ranges are the common case here.
const insertionCutoff = 12

// QuicksortRange sorts records [lo, hi) of s by timestamp using the
// Quicksort the paper evaluates: the pivot is always the middle
// element of the range ("due to time series", Section VI-A1 — the
// middle of a nearly sorted range is close to its median). Backward-
// Sort uses it as the per-block sorter (Algorithm 1 line 11),
// and with L = N Backward-Sort degenerates to exactly this procedure
// (Figure 6).
func QuicksortRange(s Sortable, lo, hi int) {
	for hi-lo > insertionCutoff {
		p := partition(s, lo, hi)
		// Recurse into the smaller side, loop on the larger: keeps
		// stack depth O(log n) even on adversarial inputs.
		if p+1-lo < hi-p-1 {
			QuicksortRange(s, lo, p+1)
			lo = p + 1
		} else {
			QuicksortRange(s, p+1, hi)
			hi = p + 1
		}
	}
	InsertionSortRange(s, lo, hi)
}

// partition splits [lo, hi) Hoare-style around the middle-element
// pivot (parked at lo first) and returns j such that [lo, j] holds
// records <= pivot and [j+1, hi) records >= pivot, both sides
// nonempty. Hoare scanning keeps duplicate-heavy inputs O(n log n),
// where a Lomuto scan degrades quadratically.
func partition(s Sortable, lo, hi int) int {
	mid := int(uint(lo+hi) >> 1)
	s.Swap(lo, mid)
	pivot := s.Time(lo)
	i, j := lo-1, hi
	for {
		for {
			i++
			if s.Time(i) >= pivot {
				break
			}
		}
		for {
			j--
			if s.Time(j) <= pivot {
				break
			}
		}
		if i >= j {
			return j
		}
		s.Swap(i, j)
	}
}

// InsertionSortRange sorts records [lo, hi) by straight insertion,
// shifting rather than swapping: the displaced record is parked in one
// scratch slot while larger records move right. This is the
// Insertion-Sort that Backward-Sort degenerates to at L = 1
// (Proposition 5).
func InsertionSortRange(s Sortable, lo, hi int) {
	if hi-lo < 2 {
		return
	}
	s.EnsureScratch(1)
	for i := lo + 1; i < hi; i++ {
		t := s.Time(i)
		if t >= s.Time(i-1) {
			continue
		}
		s.Save(i, 0)
		j := i
		for j > lo && s.Time(j-1) > t {
			s.Move(j-1, j)
			j--
		}
		s.Restore(0, j)
	}
}

// Quicksort sorts all of s with QuicksortRange.
func Quicksort(s Sortable) { QuicksortRange(s, 0, s.Len()) }

// InsertionSort sorts all of s with InsertionSortRange.
func InsertionSort(s Sortable) { InsertionSortRange(s, 0, s.Len()) }
