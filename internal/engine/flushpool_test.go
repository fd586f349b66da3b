package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFlushPoolRunsEveryJob(t *testing.T) {
	for _, size := range []int{0, 1, 2, 4} {
		p := NewSharedFlushPool(size)
		var ran atomic.Int64
		jobs := make([]func(), 37)
		for i := range jobs {
			jobs[i] = func() { ran.Add(1) }
		}
		p.do(jobs)
		if ran.Load() != 37 {
			t.Fatalf("size %d: ran %d of 37 jobs", size, ran.Load())
		}
		// do returns only after every job finished, so reuse is safe.
		ran.Store(0)
		p.do(jobs[:1])
		if ran.Load() != 1 {
			t.Fatalf("size %d: single-job do ran %d", size, ran.Load())
		}
		if len(p.slots) != 0 {
			t.Fatalf("size %d: %d slots still held after do returned", size, len(p.slots))
		}
	}
}

func TestFlushPoolConcurrentDo(t *testing.T) {
	// Multiple drains can share the pool; their job sets must not
	// interfere.
	p := NewSharedFlushPool(4)
	var wg sync.WaitGroup
	var ran atomic.Int64
	for d := 0; d < 8; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs := make([]func(), 20)
			for i := range jobs {
				jobs[i] = func() { ran.Add(1) }
			}
			p.do(jobs)
		}()
	}
	wg.Wait()
	if ran.Load() != 8*20 {
		t.Fatalf("ran %d of %d jobs", ran.Load(), 8*20)
	}
}

// TestFlushPoolBoundAcrossCallers: several callers (the drains of
// several shards) share one pool of n, and at no moment do more than n
// of their jobs run — including each caller's last job, which runs on
// the caller itself.
func TestFlushPoolBoundAcrossCallers(t *testing.T) {
	const n, callers, perCaller = 3, 6, 10
	p := NewSharedFlushPool(n)
	var running, peak atomic.Int64
	job := func() {
		cur := running.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		running.Add(-1)
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Caller 0 submits single jobs, the others batches.
			if c == 0 {
				for i := 0; i < perCaller; i++ {
					p.do([]func(){job})
				}
				return
			}
			jobs := make([]func(), perCaller)
			for i := range jobs {
				jobs[i] = job
			}
			p.do(jobs)
		}(c)
	}
	wg.Wait()
	if got := peak.Load(); got > n {
		t.Fatalf("peak concurrency %d exceeds the bound %d", got, n)
	} else if got < 2 {
		t.Fatalf("peak concurrency %d: jobs never overlapped", got)
	}
}

func TestFileHandleRefcount(t *testing.T) {
	e := openTest(t, Config{MemTableSize: 2, SyncFlush: true})
	for i := 0; i < 4; i++ {
		if err := e.Insert("s", int64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	e.mu.Lock()
	if len(e.files) == 0 {
		e.mu.Unlock()
		t.Fatal("no flushed files")
	}
	fh := e.files[0]
	fh.acquire() // simulate a query pinning the handle
	e.mu.Unlock()

	if got := fh.refs.Load(); got != 2 {
		t.Fatalf("refs = %d, want 2 (engine + query)", got)
	}
	// The engine's own release (as in Close/compaction) must not close
	// the reader while the query still holds it.
	if err := fh.release(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fh.reader.ReadChunk(fh.reader.Index()[0]); err != nil {
		t.Fatalf("read after engine release: %v", err)
	}
	// Last release closes; further reads fail.
	if err := fh.release(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fh.reader.ReadChunk(fh.reader.Index()[0]); err == nil {
		t.Fatal("read succeeded after final release")
	}
	// Put a fresh reference back so engine Close (via openTest cleanup)
	// does not double-release this handle.
	e.mu.Lock()
	e.files = e.files[1:]
	e.mu.Unlock()
}
