// Command tsbench is the IoTDB-benchmark analog: a client that drives a
// running tsdbd over TCP with a mixed write/query workload and reports
// the paper's system metrics — one cell of Figures 13–21 (cmd/repro
// -fig regenerates whole figures in-process). The engine is configured
// on the server, by tsdbd's flags:
//
//	tsdbd -dir ./data -wal-sync always &
//	tsbench -dataset lognormal -mu 1 -sigma 4 -write-pct 0.9
//	tsbench -addr 127.0.0.1:6668 -dataset samsung-s10 -write-pct 0.75
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/rpc"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6668", "tsdbd address")
	dataset := flag.String("dataset", "lognormal", "dataset: absnormal, lognormal, or a real-world name")
	mu := flag.Float64("mu", 1, "delay distribution μ")
	sigma := flag.Float64("sigma", 2, "delay distribution σ")
	writePct := flag.Float64("write-pct", 0.9, "fraction of operations that are writes")
	ops := flag.Int("ops", 400, "total operations")
	batch := flag.Int("batch", 500, "points per write batch")
	clients := flag.Int("clients", 4, "concurrent clients")
	devices := flag.Int("devices", 4, "simulated devices")
	sensorsPerDevice := flag.Int("sensors-per-device", 1, "sensors (memtable chunks) per device")
	flag.Parse()

	c, err := rpc.Dial(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()
	res, err := bench.Run(c, bench.Config{
		WritePercent:     *writePct,
		BatchSize:        *batch,
		Operations:       *ops,
		Devices:          *devices,
		SensorsPerDevice: *sensorsPerDevice,
		Dataset:          *dataset,
		Mu:               *mu,
		Sigma:            *sigma,
		Clients:          *clients,
		Seed:             1,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
		os.Exit(1)
	}
	report(res)
}

// report prints one run: the paper's metrics, then the server's
// counters, one line per layer.
func report(res bench.Result) {
	cfg := res.Config
	fmt.Printf("dataset=%s write_pct=%.2f devices=%d sensors/device=%d\n",
		cfg.Dataset, cfg.WritePercent, cfg.Devices, cfg.SensorsPerDevice)
	fmt.Printf("  ops: %d writes, %d queries\n", res.WriteOps, res.QueryOps)
	fmt.Printf("  points: %d written, %d queried\n", res.PointsWritten, res.PointsQueried)
	fmt.Printf("  query throughput: %.0f points/s (avg query %.3f ms, p50 %.3f, p95 %.3f, p99 %.3f)\n",
		res.QueryThroughput, res.AvgQueryMillis, res.P50QueryMillis, res.P95QueryMillis, res.P99QueryMillis)
	fmt.Printf("  flushes: %d, avg flush %.3f ms (sorting %.3f ms, encoding %.3f ms, writing %.3f ms; %d workers)\n",
		res.FlushCount, res.AvgFlushMillis, res.AvgSortMillis, res.AvgEncodeMillis, res.AvgWriteMillis, res.FlushWorkers)
	fmt.Printf("  engine lock: %d contended acquisitions (avg %.1f µs, p99 ≤ %.0f µs), %d queries blocked, %d sorts skipped\n",
		res.LockWaits, res.AvgLockWaitMicros, res.P99LockWaitMicros, res.QueriesBlocked, res.SortsSkipped)
	fmt.Printf("  sort kernel: %d serving sorts (flat, %.3f ms), %d paper-profile sorts (interface, %.3f ms), %d records sorted by queries\n",
		res.FlatSorts, res.FlatSortMillis, res.InterfaceSorts, res.InterfaceSortMillis, res.QuerySortedPoints)
	fmt.Printf("  separation: %d seq points, %d unseq points\n", res.SeqPoints, res.UnseqPoints)
	avgGroup := 0.0
	if res.WALSyncs > 0 {
		avgGroup = float64(res.WALCommits) / float64(res.WALSyncs)
	}
	fmt.Printf("  durability: %d wal syncs, %d commits (avg group %.1f), %d quarantined, %d recovered wal batches\n",
		res.WALSyncs, res.WALCommits, avgGroup, res.QuarantinedFiles, res.RecoveredWALBatches)
	fmt.Printf("  pruning: %d chunks from stats, %d chunks decoded, %d points skipped\n",
		res.ChunksFromStats, res.ChunksDecoded, res.PointsSkipped)
	fmt.Printf("  read amp: %d bytes read, %d blocks decoded, %d blocks skipped, %d blocks from stats\n",
		res.BytesRead, res.BlocksDecoded, res.BlocksSkipped, res.BlocksFromStats)
	fmt.Printf("  compaction: %d passes, %d bytes read (largest pass %d), %d partitions active, %d dropped\n",
		res.CompactionPasses, res.CompactionBytesRead, res.MaxCompactionPassBytes,
		res.PartitionsActive, res.PartitionsDropped)
	fmt.Printf("  front end: %d pipelined conns; queue cap %d (%d workers), %d enqueued, %d rejected\n",
		res.PipelinedConns, res.IngestQueueCap, res.IngestWorkers, res.IngestEnqueued, res.IngestRejected)
	fmt.Printf("  shards: %d\n", len(res.PerShard))
	for i, s := range res.PerShard {
		fmt.Printf("    shard %d: points=%d (seq=%d, unseq=%d) flushes=%d files=%d memtable=%d\n",
			i, s.SeqPoints+s.UnseqPoints, s.SeqPoints, s.UnseqPoints, s.FlushCount, s.Files, s.MemTablePoints)
	}
	fmt.Printf("  total test latency: %v\n", res.TotalLatency)
}
