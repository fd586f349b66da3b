package engine

import (
	"sync/atomic"
	"time"

	"repro/internal/adaptive"
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
// in the flush drain and on the query side, goes through it. With a
// planner, the flat kernel sorts the chunk in place with dec's block
// size (pinned, seeded, or default-searched). Without one — the paper
// profile, or an algorithm other than "backward" — dec is ignored and
// the configured registry algorithm sorts through the core.Sortable
// interface, which is also the reference the flat kernel is tested
// against.
//
// It returns the sort's Trace (zero when there is no planner or no
// sort ran) and the elapsed nanoseconds (0 when the sorted flag let
// the sort be skipped — an earlier query or drain paid for it, or the
// data arrived ordered — which feeds the SortsSkipped counter), and
// tallies per-kernel counts and cumulative time for Stats.
func (e *Engine) sortChunk(c *tvlist.TVList[float64], dec adaptive.Decision) (core.Trace, int64) {
	if c.Sorted() {
		e.sortsSkipped.Add(1)
		return core.Trace{}, 0
	}
	t0 := time.Now()
	if e.planner == nil {
		c.EnsureSorted(e.algo)
		d := int64(time.Since(t0))
		e.ifaceSorts.Add(1)
		e.ifaceSortNanos.Add(d)
		return core.Trace{}, d
	}
	tr, _ := c.EnsureSortedFlatTrace(core.FlatOptions{
		FixedBlockSize:   dec.FixedL,
		InitialBlockSize: dec.SeedL,
		SearchPhase:      dec.Phase,
	})
	d := int64(time.Since(t0))
	e.flatSorts.Add(1)
	e.flatSortNanos.Add(d)
	return tr, d
}

// notePlanned records the outcome of one planned flush sort: the
// planner counters, and the block size a real search chose fed back so
// the planner counts stability on confirmed measurements. tr is what
// sortChunk returned for dec; a zero BlockSize means the sort was
// skipped and there is nothing to record.
func (e *Engine) notePlanned(sensor string, dec adaptive.Decision, tr core.Trace) {
	if tr.BlockSize == 0 {
		return
	}
	switch {
	case dec.FixedL > 0:
		// Search skipped on a stable prediction; no feedback — a
		// pinned L confirming itself would be circular.
		e.adaptiveFixedSorts.Add(1)
		e.searchItersSaved.Add(int64(dec.SavedIterations))
	case dec.SeedL > 0:
		e.adaptiveSeededSorts.Add(1)
		e.searchItersSaved.Add(int64(dec.SavedIterations))
		e.planner.Observe(sensor, tr.BlockSize)
	default:
		// Default search (cold sensor): still feed the measured L back
		// so stability can build.
		e.planner.Observe(sensor, tr.BlockSize)
	}
	atomicMin(&e.adaptiveMinL, int64(tr.BlockSize))
	atomicMax(&e.adaptiveMaxL, int64(tr.BlockSize))
}

// atomicMin lowers v to x unless v is already ≤ x; 0 means unset.
func atomicMin(v *atomic.Int64, x int64) {
	for {
		old := v.Load()
		if old != 0 && old <= x {
			return
		}
		if v.CompareAndSwap(old, x) {
			return
		}
	}
}

// atomicMax raises v to x unless v is already ≥ x.
func atomicMax(v *atomic.Int64, x int64) {
	for {
		old := v.Load()
		if old >= x {
			return
		}
		if v.CompareAndSwap(old, x) {
			return
		}
	}
}
