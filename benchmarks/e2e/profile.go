package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/shard"
)

// The serving profile is fixed: it is the same on both sides of every
// comparison this benchmark is used for. BENCHMARK.json has no room for
// it, so it lives here and in benchmarks/README.md.
const (
	shardCount   = 2
	memTableSize = 100000 // points per shard
	walSync      = engine.WALSyncInterval
	walPeriod    = 200 * time.Millisecond // the stated flush policy: background group commit
	algorithm    = "backward"

	rpcBatch      = 500 // points per RPC write
	pipelineDepth = 8   // RPC writes in flight per connection
	writerConns   = 2   // never more client goroutines than the sandbox has cores

	setupRepeats = 3                      // set-ups per run; setup_s is their median
	traceSlice   = 100 * time.Millisecond // tracing alternates on/off in slices this long
)

// engineConfig is the per-shard engine configuration of the profile.
// Everything not set keeps the engine default: BlockPoints 4096, level
// bounds, flat-sort threshold, ingest-queue bounds.
func engineConfig(dir string, partition int64, fs *deviceFS) shard.Config {
	return shard.Config{
		ShardCount: shardCount,
		Config: engine.Config{
			Dir:               dir,
			MemTableSize:      memTableSize,
			Algorithm:         algorithm,
			WAL:               true,
			WALSync:           walSync,
			WALSyncPeriod:     walPeriod,
			PartitionDuration: partition,
			FS:                fs,
		},
	}
}

// sizes is everything about a workload that scales. The full scale is
// what BENCHMARK.json's run_seconds was calibrated for on the 2-core
// sandbox; smoke is about a hundredth of it, for the test.
type sizes struct {
	streamLen int // ticks per pass of an arrival-order stream; a multiple of rpcBatch and httpPerSensor

	sweepTicks  int64 // range of one verification sweep query
	pointProbes int   // point lookups in the epilogue
	pointTicks  int64 // range of a point lookup

	// ingest_ooo
	oooDevices, oooSensorsPerDevice int
	oooPartition                    int64
	oooWarmBatches                  int // per connection: past the first flushes and the first L0 merge

	// paper_mixed
	mixedSensors   int
	mixedPartition int64
	mixedWindow    int64 // "time > latest - window"
	mixedWarmOps   int   // per client

	// read_disk
	diskSensors                  int
	diskTicks                    int64 // points per flat sensor; a multiple of rpcBatch and diskPartition
	diskPartition                int64
	labelSeries                  int
	labelPoints                  int
	labelStride                  int64
	aggDecodeTicks, aggDecodeWin int64
	fanoutWindow                 int64

	// http_live_backfill
	httpSensors     int
	httpPerSensor   int     // points per sensor per body
	httpHistory     int64   // ticks per sensor preloaded before the live tail; a multiple of streamLen
	httpPartition   int64   //
	httpBodiesPerS  float64 // open-loop rate
	httpBackfillPct int     // share of bodies that are late backfill
	httpWindow      int64   // range of a reader query
	httpQueryWin    int64   // aggregation window of a reader query
	httpWarmBodies  int
}

var fullScale = sizes{
	streamLen:   256000,
	sweepTicks:  16384,
	pointProbes: 2000,
	pointTicks:  16,

	oooDevices: 16, oooSensorsPerDevice: 4,
	oooPartition:   32768,
	oooWarmBatches: 1200,

	mixedSensors:   2,
	mixedPartition: 65536,
	mixedWindow:    50000,
	mixedWarmOps:   300,

	diskSensors:    16,
	diskTicks:      128000,
	diskPartition:  16000,
	labelSeries:    1000,
	labelPoints:    512,
	labelStride:    250,
	aggDecodeTicks: 100000, aggDecodeWin: 100,
	fanoutWindow: 4000,

	httpSensors:     8,
	httpPerSensor:   64,
	httpHistory:     256000,
	httpPartition:   32000,
	httpBodiesPerS:  300,
	httpBackfillPct: 10,
	httpWindow:      50000,
	httpQueryWin:    1000,
	httpWarmBodies:  400,
}

var smokeScale = sizes{
	streamLen:   16000,
	sweepTicks:  4096,
	pointProbes: 50,
	pointTicks:  16,

	oooDevices: 4, oooSensorsPerDevice: 2,
	oooPartition:   8192,
	oooWarmBatches: 220,

	mixedSensors:   4,
	mixedPartition: 8192,
	mixedWindow:    5000,
	mixedWarmOps:   30,

	diskSensors:    4,
	diskTicks:      32000,
	diskPartition:  4000,
	labelSeries:    50,
	labelPoints:    64,
	labelStride:    500,
	aggDecodeTicks: 20000, aggDecodeWin: 100,
	fanoutWindow: 4000,

	httpSensors:     8,
	httpPerSensor:   64,
	httpHistory:     32000,
	httpPartition:   4000,
	httpBodiesPerS:  200,
	httpBackfillPct: 10,
	httpWindow:      5000,
	httpQueryWin:    500,
	httpWarmBodies:  40,
}

func scaleByName(name string) (sizes, error) {
	switch name {
	case "full":
		return fullScale, nil
	case "smoke":
		return smokeScale, nil
	}
	return sizes{}, fmt.Errorf("unknown scale %q (have full, smoke)", name)
}
