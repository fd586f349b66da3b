// Command tsbench is the IoTDB-benchmark analog: it drives the storage
// engine (in-process, or a remote tsdbd over TCP) with a mixed
// write/query workload and reports the paper's system metrics — one
// cell of Figures 13–21 (cmd/repro -fig regenerates whole figures).
//
// Run one cell:
//
//	tsbench -dataset lognormal -mu 1 -sigma 4 -write-pct 0.9 -algo backward
//
// Against a remote server:
//
//	tsbench -addr 127.0.0.1:6668 -dataset samsung-s10 -write-pct 0.75
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/shard"
)

func main() {
	dataset := flag.String("dataset", "lognormal", "dataset: absnormal, lognormal, or a real-world name")
	mu := flag.Float64("mu", 1, "delay distribution μ")
	sigma := flag.Float64("sigma", 2, "delay distribution σ")
	writePct := flag.Float64("write-pct", 0.9, "fraction of operations that are writes")
	algo := flag.String("algo", "backward", "sorting algorithm")
	ops := flag.Int("ops", 400, "total operations")
	batch := flag.Int("batch", 500, "points per write batch")
	clients := flag.Int("clients", 4, "concurrent clients")
	devices := flag.Int("devices", 4, "simulated devices")
	sensorsPerDevice := flag.Int("sensors-per-device", 1, "sensors (memtable chunks) per device")
	memtable := flag.Int("memtable", 100000, "memtable flush threshold (points, per shard)")
	shards := flag.Int("shards", 1, "engine shards for the in-process engine: 1 = unsharded, N > 1 = hash-routed shards, 0 = GOMAXPROCS shards")
	flushWorkers := flag.Int("flush-workers", 0, "flush worker pool size for the in-process engine, shared across shards (0 = GOMAXPROCS)")
	paperProfile := flag.Bool("paper-profile", false, "run the in-process engine as the paper benchmarked IoTDB: queries sort under the engine lock, every sort takes the interface path, no planner")
	walOn := flag.Bool("wal", false, "enable the write-ahead log for the in-process engine")
	walSync := flag.String("wal-sync", engine.WALSyncNone, "WAL durability policy for the in-process engine: none, interval, or always (non-none implies -wal)")
	addr := flag.String("addr", "", "remote tsdbd address (empty = in-process engine)")
	dir := flag.String("dir", "", "data directory for the in-process engine (default temp)")
	blockPoints := flag.Int("block-points", 0, "target points per v3 chunk block for the in-process engine (0 = default, negative = legacy v2 single-unit chunks)")
	partitionDuration := flag.Int64("partition-duration", 0, "time-partition width for the in-process engine; > 0 enables the leveled p<epoch>/L<n>/ layout")
	l0Files := flag.Int("l0-compact-files", 0, "L0 file count triggering a leveled merge per partition (0 = default)")
	levelBase := flag.Int64("level-base-bytes", 0, "level-0 size bound in bytes; level n is bounded by base*growth^n (0 = default)")
	levelGrowth := flag.Int("level-growth", 0, "per-level size-bound multiplier (0 = default)")
	maxLevel := flag.Int("max-level", 0, "deepest level automatic compaction creates (0 = default)")
	aggSmoke := flag.Bool("agg-smoke", false, "run the aggregation-pushdown smoke check (stats pushdown vs decode-all oracle) and exit")
	pointQuery := flag.Bool("point-query", false, "run the narrow-range point-query mode: in-order ingest, then -ops narrow queries, reporting bytes read and blocks decoded/skipped")
	queryRange := flag.Int64("query-range", 16, "time width of each narrow-range query in -point-query mode")
	readampSmoke := flag.Bool("readamp-smoke", false, "run the read-amplification smoke check (v3 block seeks vs v2 whole-chunk decodes) and exit")
	compactionSmoke := flag.Bool("compaction-smoke", false, "run the leveled-compaction smoke check (per-pass input within the level bound, O(1) partition drop) and exit")
	labelsMode := flag.Bool("labels", false, "run the label-series workload: -hosts × -metrics series through the inverted index, then selector queries fanned out across the shards")
	hosts := flag.Int("hosts", 50, "host label cardinality for the -labels workload")
	metrics := flag.Int("metrics", 20, "metric label cardinality for the -labels workload")
	pointsPerSeries := flag.Int("points-per-series", 64, "points written to each series in the -labels workload")
	labelsSmoke := flag.Bool("labels-smoke", false, "run the label-index smoke check (selector fan-out over 1000 series vs per-sensor oracle, catalog replay across restart) and exit")
	conns := flag.Int("conns", 0, "pipelined-ingest mode: connections to open (> 0 enables the mode; drives -addr, or an in-process server)")
	pipeline := flag.Int("pipeline", 1, "pipelined-ingest mode: async inserts kept in flight per connection")
	ingestSmoke := flag.Bool("ingest-smoke", false, "run the multiplexed-front-end smoke check (pipeline 8 vs 1 at 64 conns, overload reject-not-hang at queue=1) and exit")
	flag.Parse()

	if *ingestSmoke {
		if err := runIngestSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *aggSmoke {
		if err := runAggSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *readampSmoke {
		if err := runReadAmpSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *compactionSmoke {
		if err := runCompactionSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *labelsSmoke {
		if err := runLabelsSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	cell := cellConfig{
		addr: *addr, dir: *dir, dataset: *dataset, algo: *algo,
		mu: *mu, sigma: *sigma, writePct: *writePct,
		ops: *ops, batch: *batch, clients: *clients, memtable: *memtable,
		devices: *devices, sensorsPerDevice: *sensorsPerDevice,
		shards:       *shards,
		flushWorkers: *flushWorkers, paperProfile: *paperProfile,
		wal: *walOn, walSync: *walSync,
		blockPoints: *blockPoints, partitionDuration: *partitionDuration,
		l0Files: *l0Files, levelBase: *levelBase,
		levelGrowth: *levelGrowth, maxLevel: *maxLevel,
	}
	if *conns > 0 {
		if err := runIngest(cell, *conns, *pipeline); err != nil {
			fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *labelsMode {
		if err := runLabels(cell, *hosts, *metrics, *pointsPerSeries); err != nil {
			fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *pointQuery {
		if err := runPointQuery(cell, *queryRange); err != nil {
			fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := runCell(cell); err != nil {
		fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
		os.Exit(1)
	}
}

// cellConfig carries one single-cell run's flags.
type cellConfig struct {
	addr, dir, dataset, algo      string
	mu, sigma, writePct           float64
	ops, batch, clients, memtable int
	devices, sensorsPerDevice     int
	shards                        int
	flushWorkers                  int
	paperProfile                  bool
	wal                           bool
	walSync                       string
	blockPoints                   int
	partitionDuration             int64
	l0Files                       int
	levelBase                     int64
	levelGrowth                   int
	maxLevel                      int
}

// engineConfig builds the in-process engine configuration shared by the
// single-cell and point-query modes.
func (cc cellConfig) engineConfig(dir string) engine.Config {
	return engine.Config{
		Dir: dir, MemTableSize: cc.memtable, Algorithm: cc.algo,
		FlushWorkers: cc.flushWorkers, PaperProfile: cc.paperProfile,
		WAL: cc.wal, WALSync: cc.walSync,
		BlockPoints: cc.blockPoints, PartitionDuration: cc.partitionDuration,
		L0CompactFiles: cc.l0Files, LevelBaseBytes: cc.levelBase,
		LevelGrowth: cc.levelGrowth, MaxLevel: cc.maxLevel,
	}
}

func runCell(cc cellConfig) error {
	var target bench.Target
	if cc.addr != "" {
		c, err := rpc.Dial(cc.addr)
		if err != nil {
			return err
		}
		defer c.Close()
		target = c
	} else {
		dir := cc.dir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "tsbench-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		if cc.walSync != "" && cc.walSync != engine.WALSyncNone {
			cc.wal = true
		}
		engCfg := cc.engineConfig(dir)
		if cc.shards == 1 {
			eng, err := engine.Open(engCfg)
			if err != nil {
				return err
			}
			defer eng.Close()
			target = bench.EngineTarget{E: eng}
		} else {
			router, err := shard.Open(shard.Config{Config: engCfg, ShardCount: cc.shards})
			if err != nil {
				return err
			}
			defer router.Close()
			target = bench.EngineTarget{E: router}
		}
	}
	res, err := bench.Run(target, bench.Config{
		WritePercent:     cc.writePct,
		BatchSize:        cc.batch,
		Operations:       cc.ops,
		Devices:          cc.devices,
		SensorsPerDevice: cc.sensorsPerDevice,
		Dataset:          cc.dataset,
		Mu:               cc.mu,
		Sigma:            cc.sigma,
		Clients:          cc.clients,
		Seed:             1,
	})
	if err != nil {
		return err
	}
	fmt.Printf("dataset=%s algo=%s write_pct=%.2f devices=%d sensors/device=%d\n",
		cc.dataset, cc.algo, cc.writePct, cc.devices, cc.sensorsPerDevice)
	fmt.Printf("  ops: %d writes, %d queries\n", res.WriteOps, res.QueryOps)
	fmt.Printf("  points: %d written, %d queried\n", res.PointsWritten, res.PointsQueried)
	fmt.Printf("  query throughput: %.0f points/s (avg query %.3f ms, p50 %.3f, p95 %.3f, p99 %.3f)\n",
		res.QueryThroughput, res.AvgQueryMillis, res.P50QueryMillis, res.P95QueryMillis, res.P99QueryMillis)
	fmt.Printf("  flushes: %d, avg flush %.3f ms (sorting %.3f ms, encoding %.3f ms, writing %.3f ms; %d workers)\n",
		res.FlushCount, res.AvgFlushMillis, res.AvgSortMillis, res.AvgEncodeMillis, res.AvgWriteMillis, res.FlushWorkers)
	fmt.Printf("  engine lock: %d contended acquisitions (avg %.1f µs, p99 ≤ %.0f µs), %d queries blocked, %d sorts skipped\n",
		res.LockWaits, res.AvgLockWaitMicros, res.P99LockWaitMicros, res.QueriesBlocked, res.SortsSkipped)
	fmt.Printf("  sort kernel: %d flat sorts (%.3f ms), %d interface sorts (%.3f ms)\n",
		res.FlatSorts, res.FlatSortMillis, res.InterfaceSorts, res.InterfaceSortMillis)
	fmt.Printf("  adaptive: %d sketch-seeded flushes, %d search iters saved; %d pinned + %d seeded sorts; routes flat=%d iface=%d; chosen L %d..%d\n",
		res.SketchSeededFlushes, res.SearchItersSaved, res.AdaptiveFixedSorts,
		res.AdaptiveSeededSorts, res.AdaptiveFlatRoutes, res.AdaptiveIfaceRoutes,
		res.AdaptiveMinL, res.AdaptiveMaxL)
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
	if res.PipelinedConns > 0 {
		fmt.Printf("  front end: %d pipelined conns; queue cap %d (%d workers), %d enqueued, %d rejected\n",
			res.PipelinedConns, res.IngestQueueCap, res.IngestWorkers,
			res.IngestEnqueued, res.IngestRejected)
	}
	if len(res.PerShard) > 0 {
		fmt.Printf("  shards: %d\n", len(res.PerShard))
		for i, s := range res.PerShard {
			fmt.Printf("    shard %d: points=%d (seq=%d, unseq=%d) flushes=%d files=%d memtable=%d\n",
				i, s.SeqPoints+s.UnseqPoints, s.SeqPoints, s.UnseqPoints, s.FlushCount, s.Files, s.MemTablePoints)
		}
	}
	fmt.Printf("  total test latency: %v\n", res.TotalLatency)
	return nil
}

// runAggSmoke is the CI smoke check for aggregation pushdown: it
// flushes an in-order series into several chunk files, runs a
// fully-covered window average once through the stats-pushdown path
// and once through the materializing decode-all oracle, and fails
// unless the two agree and the pushdown decoded at least 10x fewer
// points.
func runAggSmoke() error {
	const (
		chunkPts = 20000 // memtable threshold = points per chunk file
		files    = 10
		total    = chunkPts * files
		sensor   = "smoke"
	)
	dir, err := os.MkdirTemp("", "tsbench-aggsmoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	eng, err := engine.Open(engine.Config{Dir: dir, MemTableSize: chunkPts, SyncFlush: true})
	if err != nil {
		return err
	}
	defer eng.Close()
	times := make([]int64, chunkPts)
	values := make([]float64, chunkPts)
	for f := 0; f < files; f++ {
		for i := range times {
			t := int64(f*chunkPts + i)
			times[i] = t
			values[i] = float64(t%977) * 0.5
		}
		if err := eng.InsertBatch(sensor, times, values); err != nil {
			return err
		}
	}
	eng.WaitFlushes()

	// In-order ingestion: every chunk file covers one window exactly,
	// so a window = chunk-size aggregation over the full range can be
	// answered entirely from statistics.
	s0 := eng.Stats()
	wins, err := query.WindowQuery(eng, sensor, 0, total, chunkPts, query.Avg)
	if err != nil {
		return err
	}
	s1 := eng.Stats()
	pts, err := eng.Query(sensor, 0, total-1)
	if err != nil {
		return err
	}
	oracle, err := query.AggregateWindows(pts, 0, total, chunkPts, query.Avg)
	if err != nil {
		return err
	}
	s2 := eng.Stats()

	if len(wins) != len(oracle) {
		return fmt.Errorf("agg-smoke: pushdown returned %d windows, oracle %d", len(wins), len(oracle))
	}
	for i := range wins {
		if wins[i] != oracle[i] {
			return fmt.Errorf("agg-smoke: window %d mismatch: pushdown %+v, oracle %+v", i, wins[i], oracle[i])
		}
	}
	pushChunks := s1.ChunksDecoded - s0.ChunksDecoded
	pushSkipped := s1.PointsSkipped - s0.PointsSkipped
	pushStats := s1.ChunksFromStats - s0.ChunksFromStats
	decodeAllChunks := s2.ChunksDecoded - s1.ChunksDecoded
	decodeAllPoints := int64(len(pts))
	pushPoints := decodeAllPoints - pushSkipped
	fmt.Printf("agg-smoke: pushdown: %d chunks from stats, %d chunks decoded, %d points decoded, %d points skipped\n",
		pushStats, pushChunks, pushPoints, pushSkipped)
	fmt.Printf("agg-smoke: decode-all: %d chunks decoded, %d points decoded\n", decodeAllChunks, decodeAllPoints)
	if pushPoints*10 > decodeAllPoints {
		return fmt.Errorf("agg-smoke: pushdown decoded %d of %d points — less than the required 10x reduction", pushPoints, decodeAllPoints)
	}
	fmt.Printf("agg-smoke: PASS (%d windows agree; %dx fewer points decoded)\n",
		len(wins), decodeAllPoints/maxInt64(pushPoints, 1))
	return nil
}

// runPointQuery is the narrow-range read-amplification workload: it
// ingests an in-order series through the configured in-process engine,
// then issues -ops queries of -query-range ticks spread evenly across
// the series, and reports how many bytes and blocks the engine actually
// touched. With the v3 block index (the default) only the blocks
// overlapping each query decode; with -block-points -1 (legacy v2
// single-unit chunks) every overlapping chunk decodes whole — the read
// amplification this mode makes visible.
func runPointQuery(cc cellConfig, width int64) error {
	if cc.addr != "" {
		return fmt.Errorf("point-query: the mode drives an in-process engine (-addr is not supported)")
	}
	if width <= 0 {
		return fmt.Errorf("point-query: -query-range must be positive")
	}
	const sensor = "pq"
	dir := cc.dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "tsbench-pq-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	if cc.walSync != "" && cc.walSync != engine.WALSyncNone {
		cc.wal = true
	}
	cfg := cc.engineConfig(dir)
	cfg.SyncFlush = true // flush cost is not what this mode measures
	eng, err := engine.Open(cfg)
	if err != nil {
		return err
	}
	defer eng.Close()

	total := int64(cc.ops) * int64(cc.batch)
	times := make([]int64, cc.batch)
	values := make([]float64, cc.batch)
	for off := int64(0); off < total; off += int64(cc.batch) {
		for i := range times {
			t := off + int64(i)
			times[i] = t
			values[i] = float64(t%997) * 0.25
		}
		if err := eng.InsertBatch(sensor, times, values); err != nil {
			return err
		}
	}
	eng.WaitFlushes()

	s0 := eng.Stats()
	stride := total / int64(cc.ops)
	if stride < 1 {
		stride = 1
	}
	var pointsOut int64
	start := time.Now()
	for q := 0; q < cc.ops; q++ {
		lo := int64(q) * stride
		hi := lo + width - 1
		if hi >= total {
			hi = total - 1
		}
		out, err := eng.Query(sensor, lo, hi)
		if err != nil {
			return err
		}
		pointsOut += int64(len(out))
	}
	elapsed := time.Since(start)
	s1 := eng.Stats()

	fmt.Printf("point-query: %d queries of %d ticks over %d in-order points (%d files, memtable %d, block-points %d)\n",
		cc.ops, width, total, s1.Files, cc.memtable, cc.blockPoints)
	fmt.Printf("  returned %d points in %v (avg %.3f ms/query)\n",
		pointsOut, elapsed, float64(elapsed.Microseconds())/1000/float64(cc.ops))
	fmt.Printf("  read amp: %d bytes read, %d blocks decoded, %d blocks skipped, %d chunks decoded\n",
		s1.BytesRead-s0.BytesRead, s1.BlocksDecoded-s0.BlocksDecoded,
		s1.BlocksSkipped-s0.BlocksSkipped, s1.ChunksDecoded-s0.ChunksDecoded)
	return nil
}

// runReadAmpSmoke is the CI gate for the v3 block index: the same
// in-order series is flushed once with legacy v2 whole-unit chunks and
// once with v3 blocks, the same narrow-range queries run against both
// stores, and the check fails unless the answers agree and the v3 store
// read at least 10x fewer bytes.
func runReadAmpSmoke() error {
	const (
		chunkPts = 4096
		files    = 64
		blockPts = 128
		queries  = 128
		width    = 40 // ~1% of a chunk's time span
		sensor   = "ra"
		total    = int64(chunkPts * files)
	)
	build := func(name string, blockPoints int) (*engine.Engine, func(), error) {
		dir, err := os.MkdirTemp("", "tsbench-readamp-"+name+"-*")
		if err != nil {
			return nil, nil, err
		}
		eng, err := engine.Open(engine.Config{
			Dir: dir, MemTableSize: chunkPts, SyncFlush: true, BlockPoints: blockPoints,
		})
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		cleanup := func() { eng.Close(); os.RemoveAll(dir) }
		times := make([]int64, chunkPts)
		values := make([]float64, chunkPts)
		for f := 0; f < files; f++ {
			for i := range times {
				t := int64(f*chunkPts + i)
				times[i] = t
				values[i] = float64(t%911) * 0.5
			}
			if err := eng.InsertBatch(sensor, times, values); err != nil {
				cleanup()
				return nil, nil, err
			}
		}
		eng.WaitFlushes()
		return eng, cleanup, nil
	}
	v2, v2done, err := build("v2", -1)
	if err != nil {
		return err
	}
	defer v2done()
	v3, v3done, err := build("v3", blockPts)
	if err != nil {
		return err
	}
	defer v3done()

	run := func(eng *engine.Engine) (bytes, decoded, skipped int64, sum float64, n int64, err error) {
		s0 := eng.Stats()
		stride := total / queries
		for q := int64(0); q < queries; q++ {
			lo := q * stride
			out, qerr := eng.Query(sensor, lo, lo+width-1)
			if qerr != nil {
				err = qerr
				return
			}
			n += int64(len(out))
			for _, tv := range out {
				sum += tv.V
			}
		}
		s1 := eng.Stats()
		bytes = s1.BytesRead - s0.BytesRead
		decoded = s1.BlocksDecoded - s0.BlocksDecoded
		skipped = s1.BlocksSkipped - s0.BlocksSkipped
		return
	}
	v2Bytes, v2Dec, _, v2Sum, v2N, err := run(v2)
	if err != nil {
		return err
	}
	v3Bytes, v3Dec, v3Skip, v3Sum, v3N, err := run(v3)
	if err != nil {
		return err
	}
	if v2N != v3N || v2Sum != v3Sum {
		return fmt.Errorf("readamp-smoke: v2/v3 answers differ: %d points (sum %v) vs %d points (sum %v)", v2N, v2Sum, v3N, v3Sum)
	}
	if want := int64(queries) * width; v2N != want {
		return fmt.Errorf("readamp-smoke: expected %d points total, got %d", want, v2N)
	}
	fmt.Printf("readamp-smoke: v2 whole-chunk: %d bytes read, %d blocks decoded\n", v2Bytes, v2Dec)
	fmt.Printf("readamp-smoke: v3 block-seek:  %d bytes read, %d blocks decoded, %d blocks skipped\n", v3Bytes, v3Dec, v3Skip)
	if v3Bytes <= 0 || v2Bytes < 10*v3Bytes {
		return fmt.Errorf("readamp-smoke: v3 read %d bytes vs v2's %d — less than the required 10x reduction", v3Bytes, v2Bytes)
	}
	fmt.Printf("readamp-smoke: PASS (%d narrow queries on a %d-chunk store; %dx fewer bytes read)\n",
		queries, files, v2Bytes/maxInt64(v3Bytes, 1))
	return nil
}

// runCompactionSmoke is the CI gate for leveled, time-partitioned
// compaction: a partitioned engine with deliberately small level bounds
// ingests enough in-order data to trigger several merge passes; the
// check fails unless passes ran, no single pass read more input than
// the deepest automatically-compacted level's bound, the merged store
// still answers a full scan correctly, and dropping expired partitions
// is visible in Stats and removes exactly their data.
func runCompactionSmoke() error {
	const (
		sensor    = "cs"
		partDur   = int64(10000)
		memtable  = 2000
		batches   = 40 // 80k points -> 8 partitions, 5 L0 flushes each
		levelBase = int64(64 << 10)
		growth    = 4
		maxLevel  = 2
		l0Files   = 4
	)
	dir, err := os.MkdirTemp("", "tsbench-compact-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	eng, err := engine.Open(engine.Config{
		Dir: dir, MemTableSize: memtable, SyncFlush: true,
		PartitionDuration: partDur, L0CompactFiles: l0Files,
		LevelBaseBytes: levelBase, LevelGrowth: growth, MaxLevel: maxLevel,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	total := int64(batches) * int64(memtable)
	times := make([]int64, memtable)
	values := make([]float64, memtable)
	for off := int64(0); off < total; off += int64(memtable) {
		for i := range times {
			t := off + int64(i)
			times[i] = t
			values[i] = float64(t%809) * 0.5
		}
		if err := eng.InsertBatch(sensor, times, values); err != nil {
			return err
		}
	}
	eng.WaitFlushes()

	st := eng.Stats()
	if st.CompactionPasses == 0 {
		return fmt.Errorf("compaction-smoke: no compaction passes ran")
	}
	// A pass compacting out of level n reads at most that level's size
	// bound; automatic compaction never reads from MaxLevel, so the
	// deepest possible pass is bounded by level MaxLevel-1.
	bound := levelBase
	for l := 1; l < maxLevel; l++ {
		bound *= growth
	}
	if st.MaxCompactionPassBytes > bound {
		return fmt.Errorf("compaction-smoke: largest pass read %d input bytes, above the %d-byte level bound",
			st.MaxCompactionPassBytes, bound)
	}
	if st.PartitionsActive < 2 {
		return fmt.Errorf("compaction-smoke: expected multiple active partitions, got %d", st.PartitionsActive)
	}
	out, err := eng.Query(sensor, 0, total-1)
	if err != nil {
		return err
	}
	if int64(len(out)) != total {
		return fmt.Errorf("compaction-smoke: full scan returned %d of %d points after compaction", len(out), total)
	}
	for i, tv := range out {
		if tv.T != int64(i) || tv.V != float64(int64(i)%809)*0.5 {
			return fmt.Errorf("compaction-smoke: point %d corrupted after compaction: %+v", i, tv)
		}
	}

	// Retention: dropping everything before the third partition unlinks
	// p0 and p1 whole, without rewriting surviving data.
	cutoff := 2 * partDur
	dropped, err := eng.DropPartitionsBefore(cutoff)
	if err != nil {
		return err
	}
	if dropped != 2 {
		return fmt.Errorf("compaction-smoke: dropped %d partitions, expected 2", dropped)
	}
	st2 := eng.Stats()
	if st2.PartitionsDropped != int64(dropped) {
		return fmt.Errorf("compaction-smoke: Stats reports %d partitions dropped, expected %d", st2.PartitionsDropped, dropped)
	}
	if st2.PartitionsActive != st.PartitionsActive-dropped {
		return fmt.Errorf("compaction-smoke: %d partitions active after drop, expected %d",
			st2.PartitionsActive, st.PartitionsActive-dropped)
	}
	gone, err := eng.Query(sensor, 0, cutoff-1)
	if err != nil {
		return err
	}
	if len(gone) != 0 {
		return fmt.Errorf("compaction-smoke: %d points survived in dropped partitions", len(gone))
	}
	kept, err := eng.Query(sensor, cutoff, total-1)
	if err != nil {
		return err
	}
	if int64(len(kept)) != total-cutoff {
		return fmt.Errorf("compaction-smoke: %d points left after drop, expected %d", len(kept), total-cutoff)
	}
	fmt.Printf("compaction-smoke: PASS (%d passes, largest %d input bytes ≤ %d bound; %d partitions dropped, %d active)\n",
		st.CompactionPasses, st.MaxCompactionPassBytes, bound, dropped, st2.PartitionsActive)
	return nil
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
