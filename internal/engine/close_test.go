package engine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// settleGoroutines waits, a bounded while, for runtime.NumGoroutine to
// fall back to base (exiting goroutines take a moment to be counted
// out) and returns the last count seen.
func settleGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 400 && n > base; i++ {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestNoGoroutineOutlivesDrains: an engine without a WAL ticker runs
// background work only while a flush drains. Once WaitFlushes returns,
// and again after Close, the process is back at the goroutine count it
// had before Open — no parked flush workers or other helpers remain.
func TestNoGoroutineOutlivesDrains(t *testing.T) {
	base := settleGoroutines(runtime.NumGoroutine())
	e, err := Open(Config{Dir: t.TempDir(), MemTableSize: 200, FlushWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 10; b++ {
		for s := 0; s < 4; s++ {
			times := make([]int64, 60)
			values := make([]float64, 60)
			for i := range times {
				times[i] = int64(b*60 + i)
			}
			if err := e.InsertBatch(fmt.Sprintf("d0.s%d", s), times, values); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.WaitFlushes()
	if st := e.Stats(); st.FlushCount < 3 {
		t.Fatalf("only %d flushes: the workload should pass several memtables", st.FlushCount)
	}
	if n := settleGoroutines(base); n != base {
		t.Fatalf("after WaitFlushes: %d goroutines, baseline %d", n, base)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if n := settleGoroutines(base); n != base {
		t.Fatalf("after Close: %d goroutines, baseline %d", n, base)
	}
}

// TestConcurrentClose: two goroutines racing Engine.Close() must BOTH
// block until background flushes have drained and resources are
// released, and both must observe the same error result. The original
// fast-path returned nil immediately for the second caller while the
// first was still waiting on flushWG — a caller could delete the data
// directory under an in-flight flush.
func TestConcurrentClose(t *testing.T) {
	e, err := Open(Config{
		Dir:          t.TempDir(),
		MemTableSize: 100, // small: inserts below trigger several async flushes
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		sensor := fmt.Sprintf("d0.s%d", s)
		for b := 0; b < 5; b++ {
			times := make([]int64, 60)
			values := make([]float64, 60)
			for i := range times {
				times[i] = int64(b*60 + i)
				values[i] = float64(i)
			}
			if err := e.InsertBatch(sensor, times, values); err != nil {
				t.Fatal(err)
			}
		}
	}

	const closers = 4
	var wg sync.WaitGroup
	errs := make([]error, closers)
	for i := 0; i < closers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = e.Close()
			// By the time any Close returns, all flush work must have
			// drained — a nonzero waitgroup here means a caller got an
			// early return while flushes were still in flight.
			e.flushWG.Wait()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != errs[0] {
			t.Fatalf("closer %d got %v, closer 0 got %v — all callers must see the same result", i, err, errs[0])
		}
		if err != nil {
			t.Fatalf("closer %d: %v", i, err)
		}
	}

	// All ingested data must be durable on disk: reopen and count.
	st := e.Stats()
	if st.MemTablePoints != 0 {
		t.Fatalf("memtable not drained at close: %d points", st.MemTablePoints)
	}
	if got, want := st.SeqPoints+st.UnseqPoints, int64(4*5*60); got != want {
		t.Fatalf("flushed %d points, want %d", got, want)
	}
}
