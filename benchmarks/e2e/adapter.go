package main

import (
	"runtime"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/ingestq"
)

// This file is the only place the benchmark reads the system's own
// statistics (Router.StatsAll, Queue.Stats, Router.IndexStats). When
// those move to a metrics registry, this is the file that changes.

// snapshot is every counter the benchmark reads, taken at one instant.
type snapshot struct {
	eng    engine.Stats   // merged across shards
	shards []engine.Stats // per shard
	queue  ingestq.Stats
	idx    index.Stats

	devWrites, devSyncs, devDirSyncs, devRenames int64
	devBytes                                     [fileClasses]int64
	devSyncNanos                                 int64

	mem runtime.MemStats
	cpu time.Duration // user + system time of the process
}

func takeSnapshot(s *server) snapshot {
	var sn snapshot
	sn.eng, sn.shards = s.router.StatsAll()
	sn.queue = s.queue.Stats()
	sn.idx = s.router.IndexStats()
	d := s.dev
	sn.devWrites, sn.devSyncs = d.writes.Load(), d.syncs.Load()
	sn.devDirSyncs, sn.devRenames = d.dirSyncs.Load(), d.renames.Load()
	for i := range sn.devBytes {
		sn.devBytes[i] = d.bytes[i].Load()
	}
	sn.devSyncNanos = d.syncNanos.Load()
	runtime.ReadMemStats(&sn.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		sn.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return sn
}

// ratio is a/b, 0 when b is 0: a layer that did nothing reports 0, not
// NaN, which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// statsMetrics turns the difference of two snapshots around the
// measured phase into per-layer metrics. The engine reports running
// averages; avg·count differences give the sums for the phase alone.
func statsMetrics(m metricSet, before, after snapshot) {
	b, a := before.eng, after.eng
	flushes := float64(a.FlushCount - b.FlushCount)
	sumDelta := func(avgA float64, nA int, avgB float64, nB int) float64 {
		return avgA*float64(nA) - avgB*float64(nB)
	}
	flushMs := sumDelta(a.AvgFlushMillis, a.FlushCount, b.AvgFlushMillis, b.FlushCount)
	sortMs := sumDelta(a.AvgSortMillis, a.FlushCount, b.AvgSortMillis, b.FlushCount)
	encodeMs := sumDelta(a.AvgEncodeMillis, a.FlushCount, b.AvgEncodeMillis, b.FlushCount)
	writeMs := sumDelta(a.AvgWriteMillis, a.FlushCount, b.AvgWriteMillis, b.FlushCount)
	m.set("engine.flushes", flushes)
	m.set("engine.flush_ms_avg", ratio(flushMs, flushes))
	m.set("engine.flush_sort_ms_avg", ratio(sortMs, flushes))
	m.set("engine.flush_encode_ms_avg", ratio(encodeMs, flushes))
	m.set("engine.flush_write_ms_avg", ratio(writeMs, flushes))
	// Flush wall time should be sort + encode + write; what is left is
	// scheduling, publication and the compaction the flush triggered.
	m.set("engine.flush_unexplained_ms_avg", ratio(flushMs-sortMs-encodeMs-writeMs, flushes))

	waits := float64(a.LockWaits - b.LockWaits)
	waitUs := a.AvgLockWaitMicros*float64(a.LockWaits) - b.AvgLockWaitMicros*float64(b.LockWaits)
	m.set("engine.lock_waits", waits)
	m.set("engine.lock_wait_avg_us", ratio(waitUs, waits))
	m.set("engine.lock_wait_p99_us", a.P99LockWaitMicros) // since open: the histogram has no delta
	m.set("engine.queries_blocked", float64(a.QueriesBlocked-b.QueriesBlocked))

	seq, unseq := float64(a.SeqPoints-b.SeqPoints), float64(a.UnseqPoints-b.UnseqPoints)
	m.set("engine.unseq_ratio", ratio(unseq, seq+unseq))
	m.set("engine.sorts_skipped", float64(a.SortsSkipped-b.SortsSkipped))
	m.set("engine.flat_sorts", float64(a.FlatSorts-b.FlatSorts))
	m.set("engine.iface_sorts", float64(a.InterfaceSorts-b.InterfaceSorts))
	m.set("engine.flat_sort_ms", a.FlatSortMillis-b.FlatSortMillis)
	m.set("engine.iface_sort_ms", a.InterfaceSortMillis-b.InterfaceSortMillis)
	m.set("engine.compaction_passes", float64(a.CompactionPasses-b.CompactionPasses))
	m.set("engine.compaction_bytes_read", float64(a.CompactionBytesRead-b.CompactionBytesRead))
	m.set("engine.files_end", float64(a.Files))

	decoded := float64(a.BlocksDecoded - b.BlocksDecoded)
	skipped := float64(a.BlocksSkipped - b.BlocksSkipped)
	fromStats := float64(a.BlocksFromStats - b.BlocksFromStats)
	m.set("engine.blocks_decoded", decoded)
	m.set("engine.blocks_skipped", skipped)
	m.set("engine.blocks_from_stats", fromStats)
	m.set("engine.skip_ratio", ratio(skipped+fromStats, decoded+skipped+fromStats))
	m.set("engine.bytes_read", float64(a.BytesRead-b.BytesRead))

	syncs := float64(a.WALSyncs - b.WALSyncs)
	m.set("wal.syncs", syncs)
	m.set("wal.commits_per_sync", ratio(float64(a.WALCommits-b.WALCommits), syncs))

	m.set("ingestq.enqueued", float64(after.queue.Enqueued-before.queue.Enqueued))
	m.set("ingestq.rejected", float64(after.queue.Rejected-before.queue.Rejected))

	// Shard balance over the phase: the busiest shard's share of the
	// points above an even split (0 = even).
	var total, busiest float64
	for i := range after.shards {
		p := float64(after.shards[i].SeqPoints + after.shards[i].UnseqPoints -
			before.shards[i].SeqPoints - before.shards[i].UnseqPoints)
		total += p
		busiest = max(busiest, p)
	}
	m.set("shard.points_imbalance", max(ratio(busiest*float64(len(after.shards)), total)-1, 0))

	m.set("index.postings_entries", float64(after.idx.PostingsEntries))
	selects := float64(a.SelectorQueries - b.SelectorQueries)
	m.set("index.series_per_select", ratio(float64(a.FanoutSeries-b.FanoutSeries), selects))

	m.set("device.writes", float64(after.devWrites-before.devWrites))
	m.set("device.write_bytes_wal", float64(after.devBytes[fileWAL]-before.devBytes[fileWAL]))
	m.set("device.write_bytes_flush", float64(after.devBytes[fileFlush]-before.devBytes[fileFlush]))
	m.set("device.write_bytes_compact", float64(after.devBytes[fileCompact]-before.devBytes[fileCompact]))
	m.set("device.syncs", float64(after.devSyncs-before.devSyncs))
	m.set("device.dir_syncs", float64(after.devDirSyncs-before.devDirSyncs))
	m.set("device.renames", float64(after.devRenames-before.devRenames))
	m.set("device.sync_ms_total", float64(after.devSyncNanos-before.devSyncNanos)/1e6)

	m.set("process.heap_peak_mb", float64(after.mem.HeapSys)/(1<<20))
	m.set("process.gc_pause_ms_total", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
}
