package engine

import (
	"math"
	"testing"

	"repro/internal/dataset"
)

// BenchmarkQueryWorkingChunk is the paper's mixed load on one working
// chunk: LogNormal(1,4) arrivals, one tick per generation interval,
// written in 500-point batches until the chunk holds 100k points (then
// flushed, and the next 100k follow), each batch followed by the query
// time >= latest−50000. Only the queries are timed. It reports
// ns/query and the records each query sorted (Stats.QuerySortedPoints):
// a query sorts only the writes since the chunk's last published
// image.
func BenchmarkQueryWorkingChunk(b *testing.B) {
	const (
		chunkPoints = 100_000
		batch       = 500
		window      = 50_000
	)
	ds := dataset.LogNormal(chunkPoints, 1, 4, 1)
	e, err := Open(Config{Dir: b.TempDir(), MemTableSize: 1 << 30, SyncFlush: true})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ts, vs := make([]int64, batch), make([]float64, batch)
	latest, base, pos := int64(math.MinInt64), int64(0), 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if pos == chunkPoints {
			e.Flush()
			pos, base = 0, base+chunkPoints
		}
		for j := range ts {
			ts[j] = base + ds.Times[pos+j]/1000
			vs[j] = ds.Values[pos+j]
			latest = max(latest, ts[j])
		}
		pos += batch
		if err := e.InsertBatch("s", ts, vs); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := e.Query("s", latest-window, latest); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(e.Stats().QuerySortedPoints)/float64(b.N), "sorted/query")
}
