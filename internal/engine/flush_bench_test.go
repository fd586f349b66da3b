package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkFlushWorkers measures the wall time of draining one
// multi-sensor memtable generation at different FlushWorkers bounds. Each
// sensor's chunk is an independent sort+encode job, so on multi-core
// machines flush wall time should drop as workers increase (on a
// single-core machine the bound can only show parity, since sort and
// encode are CPU-bound).
func BenchmarkFlushWorkers(b *testing.B) {
	const (
		sensors      = 16
		pointsPerSen = 20_000
	)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e, err := Open(Config{
				Dir:          b.TempDir(),
				MemTableSize: 1 << 30, // rotate only on explicit Flush
				FlushWorkers: workers,
				SyncFlush:    true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()

			r := rand.New(rand.NewSource(1))
			times := make([]int64, pointsPerSen)
			vals := make([]float64, pointsPerSen)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// Refill with locally-shuffled data so every drain has
				// real sorting work (the sorted flag would otherwise
				// skip it after the first flush).
				base := int64(i) * pointsPerSen
				for j := range times {
					times[j] = base + int64(j)
				}
				for j := len(times) - 1; j > 0; j-- {
					k := j - r.Intn(50)
					if k < 0 {
						k = 0
					}
					times[j], times[k] = times[k], times[j]
				}
				for j := range vals {
					vals[j] = r.Float64()
				}
				for s := 0; s < sensors; s++ {
					if err := e.InsertBatch(fmt.Sprintf("s%02d", s), times, vals); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				e.Flush()
				if err := e.FlushError(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
