// Package shard implements the storage-group layer: a Router that
// hash-partitions sensors across N independent engine.Engine instances
// ("shards"), the way IoTDB deployments partition series into storage
// groups so ingestion, flushing and recovery scale across cores and
// directories. Each shard owns its own data directory (shard-%03d/
// under the router root), its own WAL segments and its own memtable
// budget; one machine-wide sort/encode bound is shared by every shard
// so N shards cannot oversubscribe the CPU.
//
// Routing is FNV-1a over the sensor id, modulo the shard count — a
// pure function of (sensor, N), so the same sensor lands on the same
// shard across restarts as long as N is unchanged (Open rejects a
// directory whose recorded layout disagrees with the requested count).
//
// The Router exposes the full engine surface. Single-sensor operations
// (Insert, InsertBatch, Query, LatestTime, Aggregate) go to the owning
// shard only; engine-wide operations (Flush, WaitFlushes, Compact,
// Close) fan out to every shard in parallel and return the first error
// by shard order; StatsAll merges per-shard snapshots into one
// aggregate (engine.MergeStats) and returns the breakdown beside it.
package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/faultfs"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/winagg"
)

// Config configures a Router. The embedded engine.Config is the
// per-shard template: Dir is the router's root directory (each shard
// lives in Dir/shard-%03d), MemTableSize is the per-shard flush
// threshold, and the remaining fields apply to every shard verbatim.
// SharedPool and FlushWorkers interact as follows: the router always
// builds one engine.SharedFlushPool bounded by FlushWorkers (default
// GOMAXPROCS) and hands it to every shard, so the flush-concurrency
// bound is global, not per shard.
type Config struct {
	engine.Config
	// ShardCount is the number of engine shards (default GOMAXPROCS).
	// It must match the layout of an existing data directory.
	ShardCount int
}

// Router fans the engine API out over hash-partitioned shards. All
// methods are safe for concurrent use.
type Router struct {
	cfg    Config
	shards []*engine.Engine

	// Label-series layer (labels.go): store-level inverted index plus
	// selector fan-out accounting.
	idx             *index.Index
	selectorQueries atomic.Int64
	fanoutSeries    atomic.Int64
	maxFanoutWidth  atomic.Int64
}

// shardDirFmt is the per-shard directory name layout under the root.
const shardDirFmt = "shard-%03d"

// Index returns the shard index FNV-1a assigns to sensor among n
// shards. It is exported so tests (and operators reading per-shard
// stats) can predict placement; the function is stable — changing it
// would orphan existing data directories.
func Index(sensor string, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(sensor); i++ {
		h ^= uint64(sensor[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// Open creates or reopens a sharded store rooted at cfg.Dir. Shards
// are opened concurrently, so per-shard WAL recovery (when
// cfg.WAL is set) runs in parallel too. Reopening a directory with a
// different ShardCount fails: hash routing is stable only for a fixed
// N, so a mismatch would silently strand data on unreachable shards.
// So does a root that holds an engine store of its own (chunk files,
// WAL segments or partition directories beside the shard
// directories): no shard would ever open that data.
func Open(cfg Config) (*Router, error) {
	if cfg.ShardCount < 0 {
		return nil, fmt.Errorf("shard: ShardCount must be positive, got %d", cfg.ShardCount)
	}
	if cfg.ShardCount == 0 {
		cfg.ShardCount = runtime.GOMAXPROCS(0)
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("shard: Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	existing := 0
	for _, ent := range entries {
		if engine.IsStoreEntry(ent.Name(), ent.IsDir()) {
			return nil, fmt.Errorf("shard: directory %s holds an unsharded engine store (%s at its root); "+
				"move its chunk files, WAL segments and p<epoch>/ directories into %s and reopen with one shard (-shards 1)",
				cfg.Dir, ent.Name(), filepath.Join(cfg.Dir, fmt.Sprintf(shardDirFmt, 0)))
		}
		if ent.IsDir() && strings.HasPrefix(ent.Name(), "shard-") {
			existing++
		}
	}
	if existing > 0 && existing != cfg.ShardCount {
		return nil, fmt.Errorf("shard: directory %s holds %d shard(s) but %d requested; routing would not be stable",
			cfg.Dir, existing, cfg.ShardCount)
	}

	r := &Router{
		cfg:    cfg,
		shards: make([]*engine.Engine, cfg.ShardCount),
	}
	pool := engine.NewSharedFlushPool(cfg.FlushWorkers)
	errs := make([]error, cfg.ShardCount)
	var wg sync.WaitGroup
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shardCfg := cfg.Config
			shardCfg.Dir = filepath.Join(cfg.Dir, fmt.Sprintf(shardDirFmt, i))
			shardCfg.SharedPool = pool
			r.shards[i], errs[i] = engine.Open(shardCfg)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Close whatever did open, then surface the first failure.
			for _, e := range r.shards {
				if e != nil {
					e.Close()
				}
			}
			return nil, fmt.Errorf("shard: open: %w", err)
		}
	}

	// The label-series index is store-level, beside the shard dirs. It
	// inherits the engine's filesystem seam and follows the WAL's
	// durability posture: if acknowledged writes survive crashes, so
	// must acknowledged series registrations.
	fs := cfg.FS
	if fs == nil {
		fs = faultfs.OS
	}
	idx, err := index.Open(filepath.Join(cfg.Dir, "index"), index.Options{
		FS:      fs,
		Durable: cfg.WAL && cfg.WALSync != "" && cfg.WALSync != engine.WALSyncNone,
	})
	if err != nil {
		for _, e := range r.shards {
			e.Close()
		}
		return nil, fmt.Errorf("shard: open index: %w", err)
	}
	r.idx = idx
	return r, nil
}

// ShardCount returns the number of shards.
func (r *Router) ShardCount() int { return len(r.shards) }

// shardFor returns the engine owning sensor.
func (r *Router) shardFor(sensor string) *engine.Engine {
	return r.shards[Index(sensor, len(r.shards))]
}

// Insert ingests one point, routed to the sensor's shard.
func (r *Router) Insert(sensor string, t int64, v float64) error {
	return r.shardFor(sensor).Insert(sensor, t, v)
}

// InsertBatch ingests a batch for one sensor, routed to its shard.
func (r *Router) InsertBatch(sensor string, times []int64, values []float64) error {
	return r.shardFor(sensor).InsertBatch(sensor, times, values)
}

// Query returns sensor's records in [minT, maxT] from its shard.
func (r *Router) Query(sensor string, minT, maxT int64) ([]engine.TV, error) {
	return r.shardFor(sensor).Query(sensor, minT, maxT)
}

// LatestTime returns the newest ingested timestamp for sensor.
func (r *Router) LatestTime(sensor string) (int64, bool) {
	return r.shardFor(sensor).LatestTime(sensor)
}

// Aggregate runs a windowed aggregation over sensor on its shard:
// SELECT agg(value) GROUP BY window over the half-open [startT, endT).
func (r *Router) Aggregate(sensor string, startT, endT, window int64, agg query.Aggregator) ([]query.WindowResult, error) {
	return query.WindowQuery(r.shardFor(sensor), sensor, startT, endT, window, agg)
}

// AggregateWindows evaluates a windowed aggregate directly on the
// owning shard's engine, so query.WindowQuery over a Router keeps the
// engine's statistics pushdown.
func (r *Router) AggregateWindows(sensor string, startT, endT, window int64, op winagg.Op) ([]winagg.Window, error) {
	return r.shardFor(sensor).AggregateWindows(sensor, startT, endT, window, op)
}

// fanOut runs f on every shard concurrently and returns the first
// error by shard order.
func (r *Router) fanOut(f func(*engine.Engine) error) error {
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i, e := range r.shards {
		wg.Add(1)
		go func(i int, e *engine.Engine) {
			defer wg.Done()
			errs[i] = f(e)
		}(i, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Flush forces every shard's working memtables to disk, in parallel.
func (r *Router) Flush() {
	r.fanOut(func(e *engine.Engine) error {
		e.Flush()
		return nil
	})
}

// WaitFlushes blocks until every shard's in-flight background flushes
// have finished.
func (r *Router) WaitFlushes() {
	r.fanOut(func(e *engine.Engine) error {
		e.WaitFlushes()
		return nil
	})
}

// Compact folds every shard's flushed files, in parallel, returning
// the first error by shard order.
func (r *Router) Compact() error {
	return r.fanOut((*engine.Engine).Compact)
}

// DropPartitionsBefore removes every time partition wholly before
// cutoff on every shard, returning the total number of partition
// directories dropped and the first error by shard order.
func (r *Router) DropPartitionsBefore(cutoff int64) (int, error) {
	counts := make([]int, len(r.shards))
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i, e := range r.shards {
		wg.Add(1)
		go func(i int, e *engine.Engine) {
			defer wg.Done()
			counts[i], errs[i] = e.DropPartitionsBefore(cutoff)
		}(i, e)
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	for _, err := range errs {
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// FlushError returns the first recorded background flush failure
// across the shards, by shard order.
func (r *Router) FlushError() error {
	for _, e := range r.shards {
		if err := e.FlushError(); err != nil {
			return err
		}
	}
	return nil
}

// FileCount reports the total flushed-file count across shards.
func (r *Router) FileCount() int {
	n := 0
	for _, e := range r.shards {
		n += e.FileCount()
	}
	return n
}

// Close closes every shard in parallel (each flushes its remaining
// data and waits out its drains), then the label index. The first
// per-shard error by shard order is returned. Safe to call more than
// once and concurrently, like engine.Close.
func (r *Router) Close() error {
	err := r.fanOut((*engine.Engine).Close)
	if cerr := r.idx.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns the aggregate of StatsAll (same shape an unsharded
// engine reports, so every existing consumer keeps working).
func (r *Router) Stats() engine.Stats {
	m, _ := r.StatsAll()
	return m
}

// StatsAll returns the merged aggregate and the per-shard snapshots
// from one collection pass, so the two views describe the same instant.
func (r *Router) StatsAll() (engine.Stats, []engine.Stats) {
	per := make([]engine.Stats, len(r.shards))
	var wg sync.WaitGroup
	for i, e := range r.shards {
		wg.Add(1)
		go func(i int, e *engine.Engine) {
			defer wg.Done()
			per[i] = e.Stats()
		}(i, e)
	}
	wg.Wait()
	m := engine.MergeStats(per)
	r.injectIndexStats(&m)
	return m, per
}
