package engine

import (
	"runtime"
	"sync"
)

// SharedFlushPool bounds the CPU side of flushing — sorting sensor
// chunks and encoding them into tsfile chunk payloads — with a counting
// semaphore: every job holds one slot while it runs. One pool serves
// every drain of an engine, and every engine handed it through
// Config.SharedPool (the shard layer gives one to all its shards), so
// the bound holds however many memtable generations and shards flush
// at once. The file itself is still written by the draining goroutine,
// in deterministic sensor order, from the jobs' encoded results.
//
// A pool holds no goroutines between calls, so it is never started or
// stopped. With size 1 jobs run inline on the calling goroutine without
// a slot: the paper-reproduction mode (cmd/repro) uses that to keep
// per-flush wall time attributable to the sorting algorithm rather
// than to scheduling.
type SharedFlushPool struct {
	slots chan struct{}
}

// NewSharedFlushPool returns a pool running at most workers jobs at
// once (0 or less selects GOMAXPROCS).
func NewSharedFlushPool(workers int) *SharedFlushPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &SharedFlushPool{slots: make(chan struct{}, workers)}
}

// Size reports the resolved bound.
func (p *SharedFlushPool) Size() int { return cap(p.slots) }

// do runs every job and returns when all have finished. Each job runs
// on its own goroutine once it holds a slot, except the last, which
// runs on the caller (so a single job never spawns one). Jobs may run
// in any order and must synchronize among themselves where they touch
// shared state.
func (p *SharedFlushPool) do(jobs []func()) {
	if cap(p.slots) == 1 {
		for _, fn := range jobs {
			fn()
		}
		return
	}
	var wg sync.WaitGroup
	for i, fn := range jobs {
		p.slots <- struct{}{}
		if i == len(jobs)-1 {
			fn()
			<-p.slots
			break
		}
		wg.Add(1)
		go func() {
			fn()
			<-p.slots
			wg.Done()
		}()
	}
	wg.Wait()
}
