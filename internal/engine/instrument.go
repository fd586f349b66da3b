package engine

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/tvlist"
)

// lockWaitBuckets is the histogram width: bucket 0 counts waits under
// 1µs, bucket i counts waits in [2^(i-1), 2^i) µs, and the last bucket
// absorbs everything longer (2^22 µs ≈ 4.2 s).
const lockWaitBuckets = 24

// lockWaitHist is a lock-free histogram of engine-lock acquisition
// waits. Only contended acquisitions are recorded (the uncontended
// fast path costs one TryLock), so the counts answer the question the
// paper's Figures 13–15 circle around: how often, and for how long,
// does the engine lock make someone wait?
type lockWaitHist struct {
	counts [lockWaitBuckets]atomic.Int64
	n      atomic.Int64
	total  atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
}

func (h *lockWaitHist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.n.Add(1)
	h.total.Add(int64(d))
	for {
		old := h.max.Load()
		if int64(d) <= old || h.max.CompareAndSwap(old, int64(d)) {
			break
		}
	}
	us := d.Microseconds()
	b := 0
	for us > 0 && b < lockWaitBuckets-1 {
		us >>= 1
		b++
	}
	h.counts[b].Add(1)
}

// percentileMicros returns an upper bound for the p-th percentile wait
// in microseconds, at bucket (power-of-two) resolution.
func (h *lockWaitHist) percentileMicros(p float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	target := int64(float64(n)*p/100 + 0.5)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < lockWaitBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= target {
			return float64(int64(1) << i)
		}
	}
	return float64(int64(1) << (lockWaitBuckets - 1))
}

// lockContended acquires the engine lock, recording the wait whenever
// the lock was not immediately free. isQuery additionally feeds the
// queries-blocked counter — the query side of IoTDB's
// query-blocks-writes contention window.
func (e *Engine) lockContended(isQuery bool) {
	if e.mu.TryLock() {
		return
	}
	t0 := time.Now()
	e.mu.Lock()
	e.lockHist.record(time.Since(t0))
	if isQuery {
		e.queriesBlocked.Add(1)
	}
}

// sortChunk is the engine's one sort entry point: every TVList sort,
// in the flush drain and on the query side, goes through it. Outside
// the paper profile, with the "backward" algorithm, the flat kernel
// sorts the chunk in place and picks its block size by the paper's
// search (Algorithm 1 lines 1–8). Otherwise — the paper profile, or an
// algorithm other than "backward" — the configured registry algorithm
// sorts through the core.Sortable interface, which is also the
// reference the flat kernel is tested against.
//
// It returns the elapsed nanoseconds (0 when the sorted flag let the
// sort be skipped — an earlier query or drain paid for it, or the data
// arrived ordered — which feeds the SortsSkipped counter), and tallies
// per-kernel counts and cumulative time for Stats.
func (e *Engine) sortChunk(c *tvlist.TVList[float64]) int64 {
	if c.Sorted() {
		e.sortsSkipped.Add(1)
		return 0
	}
	t0 := time.Now()
	if !e.flat {
		c.EnsureSorted(e.algo)
		d := int64(time.Since(t0))
		e.ifaceSorts.Add(1)
		e.ifaceSortNanos.Add(d)
		return d
	}
	c.EnsureSortedFlat(core.FlatOptions{})
	d := int64(time.Since(t0))
	e.flatSorts.Add(1)
	e.flatSortNanos.Add(d)
	return d
}
