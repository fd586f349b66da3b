package tvlist

import (
	"sync"

	"repro/internal/core"
)

// The compact-to-flat sort fast path. A blocked TVList pays a block
// lookup (i/arrayLen, i%arrayLen) plus an interface dispatch on every
// record access a sorting algorithm makes. For large dirty lists it is
// cheaper to coalesce the fixed-size arrays into one contiguous
// (times, values) pair — two O(n) memcpy passes — run the
// monomorphized core.SortFlat kernel on it, and scatter the sorted
// records back. The flat buffers come from a process-wide pool, so a
// steady-state flush (where every generation sorts lists of similar
// size) does zero sort-path allocations.

// flatBuf is one pooled contiguous (times, values) pair.
type flatBuf[V any] struct {
	t []int64
	v []V
	// clearOnPut: the value type can hold heap references, so the
	// buffer must be zeroed before pooling or it would pin them.
	clearOnPut bool
}

// flatBufPool recycles buffers across every TVList in the process —
// flush workers and query goroutines share it. It stores mixed value
// type instantiations; a Get that surfaces another type's buffer drops
// it (an engine sorts one value type essentially always, so the
// mismatch path is startup noise).
var flatBufPool sync.Pool

func getFlatBuf[V any](n int) *flatBuf[V] {
	if x := flatBufPool.Get(); x != nil {
		if b, ok := x.(*flatBuf[V]); ok {
			if cap(b.t) < n {
				c := 2 * cap(b.t)
				if c < n {
					c = n
				}
				b.t = make([]int64, c)
				b.v = make([]V, c)
			}
			b.t = b.t[:n]
			b.v = b.v[:n]
			return b
		}
	}
	return &flatBuf[V]{t: make([]int64, n), v: make([]V, n), clearOnPut: valuesHoldRefs[V]()}
}

func putFlatBuf[V any](b *flatBuf[V]) {
	if b.clearOnPut {
		clear(b.v)
	}
	flatBufPool.Put(b)
}

// valuesHoldRefs reports whether V may hold heap references that a
// recycled buffer would pin. The primitive TVList kinds (the common
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

// EnsureSortedFlat is EnsureSorted routed through the flat kernel:
// coalesce into a pooled contiguous pair, core.SortFlat (zero
// interface calls, zero div/mod indexing, optionally parallel phase
// 2), scatter back. It reports whether a sort was actually performed.
//
// The caller chooses between this and the in-place interface path; the
// engine routes lists here when they are dirty or long enough that the
// 2·O(n) copy cost is far below the constant-factor savings, and keeps
// the rest on EnsureSorted.
func (l *TVList[V]) EnsureSortedFlat(opts core.FlatOptions) bool {
	_, sorted := l.EnsureSortedFlatTrace(opts)
	return sorted
}

// EnsureSortedFlatTrace is EnsureSortedFlat returning the kernel's
// Trace as well, so callers that plan block sizes — the adaptive sort
// path — can observe the L the sort actually ran with.
func (l *TVList[V]) EnsureSortedFlatTrace(opts core.FlatOptions) (core.Trace, bool) {
	if l.sorted {
		return core.Trace{}, false
	}
	n := l.size
	buf := getFlatBuf[V](n)
	for i, blk := 0, 0; i < n; blk++ {
		end := i + l.arrayLen
		if end > n {
			end = n
		}
		copy(buf.t[i:end], l.times[blk][:end-i])
		copy(buf.v[i:end], l.values[blk][:end-i])
		i = end
	}
	tr := core.SortFlat(buf.t, buf.v, opts)
	for i, blk := 0, 0; i < n; blk++ {
		end := i + l.arrayLen
		if end > n {
			end = n
		}
		copy(l.times[blk][:end-i], buf.t[i:end])
		copy(l.values[blk][:end-i], buf.v[i:end])
		i = end
	}
	putFlatBuf(buf)
	l.sorted = true
	return tr, true
}
