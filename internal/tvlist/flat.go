package tvlist

import "repro/internal/core"

// EnsureSortedFlat is EnsureSorted through the flat kernel:
// core.SortFlat (zero interface calls, zero div/mod indexing) runs in
// place on the list's contiguous array pair. It reports whether a sort
// was actually performed.
//
// A blocked list is first coalesced into the contiguous layout and
// stays that way, so only its first flat sort pays the copy.
func (l *TVList[V]) EnsureSortedFlat(opts core.FlatOptions) bool {
	if l.sorted {
		return false
	}
	l.coalesce()
	core.SortFlat(l.times[0][:l.size], l.values[0][:l.size], opts)
	l.sorted = true
	return true
}

// coalesce switches a blocked list to the contiguous layout, copying
// its records into one array of exactly Len records when they span
// more than one array.
func (l *TVList[V]) coalesce() {
	if l.contiguous {
		return
	}
	l.contiguous = true
	if len(l.times) <= 1 {
		return
	}
	ts, vs := l.ToSlices()
	l.times, l.values, l.arrayLen = [][]int64{ts}, [][]V{vs}, l.size
}
