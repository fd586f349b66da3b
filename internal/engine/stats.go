package engine

import (
	"fmt"
	"reflect"
	"strings"
)

// Stats is a snapshot of engine-side metrics. The flush count, the
// per-flush averages and the file and memtable numbers are read
// together under the engine lock, which a drain holds while it
// publishes its files and counts its flush; every other counter is a
// lock-free atomic read just after. InsertBatch bumps SeqPoints and
// UnseqPoints after it releases the engine lock, so under concurrent
// load a snapshot can hold a batch in MemTablePoints that those two do
// not count yet.
//
// Each field declares how MergeStats folds it across snapshots (the
// shards of a router) in its merge tag; an untagged field sums:
//
//	merge:"max"          the largest value
//	merge:"mean:W"       the mean weighted by the int field W
//	merge:"first"        the first snapshot's value (an echo all share)
//
// Every field is an exported int, int64 or float64; StatsFields is the
// table built from these declarations, which the RPC codec walks too.
type Stats struct {
	FlushCount     int
	AvgFlushMillis float64 `merge:"mean:FlushCount"` // mean wall time: state transition → file on disk
	// AvgSortMillis is the mean summed chunk-sorting time per flush.
	// With FlushWorkers > 1 sorts run concurrently, so this is CPU
	// time and can exceed the flush wall time.
	AvgSortMillis   float64 `merge:"mean:FlushCount"`
	AvgEncodeMillis float64 `merge:"mean:FlushCount"` // mean summed chunk-encoding (columnar codec + CRC) time per flush
	AvgWriteMillis  float64 `merge:"mean:FlushCount"` // mean file write+close+reopen wall time per flush
	SeqPoints       int64   // points ingested via the sequence path
	UnseqPoints     int64   // points diverted by the separation policy
	Files           int
	MemTablePoints  int
	FlushWorkers    int   `merge:"first"` // resolved flush concurrency bound
	SortsSkipped    int64 // TVList sorts avoided: nothing new since the last sort, or it arrived in order
	// Sort kernels: how many TVList sorts took the flat kernel (every
	// sort outside the paper profile, with "backward") vs the
	// core.Sortable interface
	// (the paper profile, or an algorithm other than "backward"), and
	// the cumulative wall time spent in each (flush drains and queries
	// combined).
	FlatSorts           int64
	InterfaceSorts      int64
	FlatSortMillis      float64
	InterfaceSortMillis float64
	// QuerySortedPoints counts the records queries sorted: outside the
	// paper profile only the writes since a chunk's last published
	// sorted image, so back-to-back queries add nothing.
	QuerySortedPoints int64
	// Engine-lock contention, recorded only when an acquisition had to
	// wait (the uncontended fast path is not counted). A merged p99 is
	// the worst snapshot's p99, an upper bound: an exact cross-shard
	// percentile would need the raw histograms.
	LockWaits         int64
	AvgLockWaitMicros float64 `merge:"mean:LockWaits"`
	MaxLockWaitMicros float64 `merge:"max"`
	P99LockWaitMicros float64 `merge:"max"`
	QueriesBlocked    int64   // queries that waited on the engine lock
	// Durability counters: WAL fsync activity (WALCommits/WALSyncs is
	// the mean group-commit batch size under WALSyncAlways) and crash
	// recovery outcomes from the last Open.
	WALSyncs            int64 // fsyncs issued on WAL segments
	WALCommits          int64 // commit tickets served by those fsyncs
	QuarantinedFiles    int   // torn/corrupt files quarantined at recovery
	RecoveredWALBatches int64 // batches replayed from WAL at recovery
	// Aggregation-pushdown pruning counters: chunks answered from
	// index statistics without decoding (and the points that skipped
	// decoding as a result) vs chunks the read path actually decoded.
	ChunksFromStats int64
	ChunksDecoded   int64
	PointsSkipped   int64
	// Read-amplification counters (block index): file bytes
	// fetched for decode on the query path, and the per-block outcome
	// of the time-range seek — decoded vs skipped without I/O.
	// BlocksFromStats counts blocks answered from per-block statistics
	// (the block-granular extension of ChunksFromStats).
	BytesRead       int64
	BlocksDecoded   int64
	BlocksSkipped   int64
	BlocksFromStats int64
	// Leveled compaction and time-partition lifecycle.
	CompactionPasses       int64 // merge passes completed (automatic + full)
	CompactionBytesRead    int64 // input bytes consumed by those passes
	MaxCompactionPassBytes int64 `merge:"max"` // largest single pass's input bytes
	PartitionsDropped      int64 // partitions removed by DropPartitionsBefore
	PartitionsActive       int   // distinct time partitions currently on disk
	// Label-index counters. The inverted series index lives at the
	// shard-router layer, so a bare engine always reports zeros; the
	// fields sit in Stats so the merged router snapshot keeps the
	// engine's shape for every existing consumer.
	SeriesCount        int   // registered label series
	LabelPairs         int   // distinct name=value postings lists
	PostingsEntries    int64 // total series-id entries across postings
	MatcherResolutions int64 // selector resolutions served by the index
	SelectorQueries    int64 // multi-series selector queries executed
	FanoutSeries       int64 // per-series subqueries fanned out by those
	MaxFanoutWidth     int   `merge:"max"` // widest single selector fan-out
	// Ingest front-end counters. The bounded dispatch queue and the
	// connection multiplexer live in the rpc server (shared with the
	// HTTP gateway), so a bare engine always reports zeros; the server
	// overlays them onto the aggregate snapshot it serves, the same
	// way the router injects the label-index counters.
	IngestQueueCap   int   // dispatch queue capacity
	IngestQueueDepth int   // tasks waiting at snapshot time
	IngestWorkers    int   // shared worker-pool size
	IngestEnqueued   int64 // ops accepted into the queue (rpc + http)
	IngestRejected   int64 // ops refused with overloaded/429
	PipelinedConns   int64 // rpc connections accepted past the handshake
	// HTTP gateway counters, filled only by the gateway's own /stats
	// view (zero in the rpc server's snapshot).
	HTTPWrites int64 // line-protocol POST /write requests served
	HTTPPoints int64 // points ingested through the gateway
}

// StatsField is one entry of the Stats field table: the field's kind
// and its merge tag, a mean's weight resolved to a field index.
type StatsField struct {
	Kind   reflect.Kind // reflect.Int, reflect.Int64 or reflect.Float64
	rule   string       // "" (sum), "max", "first" or "mean"
	weight int          // "mean": index of the weighting field
}

// StatsFields is the one field table of Stats, in declaration order:
// MergeStats folds by it and the RPC stats codec walks it, so a new
// counter needs its field, its counter and its line in Engine.Stats
// and nothing else. A field the table cannot carry or a merge tag it
// does not know panics at init, which every test catches.
var StatsFields = statsTable(reflect.TypeOf(Stats{}))

func statsTable(t reflect.Type) []StatsField {
	isInt := func(k reflect.Kind) bool { return k == reflect.Int || k == reflect.Int64 }
	fields := make([]StatsField, t.NumField())
	for i := range fields {
		f := t.Field(i)
		k := f.Type.Kind()
		if !f.IsExported() || !(isInt(k) || k == reflect.Float64) {
			panic(fmt.Sprintf("engine: %s.%s (%s): stats fields are exported int, int64 or float64", t.Name(), f.Name, f.Type))
		}
		sf := StatsField{Kind: k, rule: f.Tag.Get("merge")}
		if weight, isMean := strings.CutPrefix(sf.rule, "mean:"); isMean {
			w, ok := t.FieldByName(weight)
			if !ok || !isInt(w.Type.Kind()) || k != reflect.Float64 {
				panic(fmt.Sprintf("engine: %s.%s: merge %q needs a float64 field and an int weight field", t.Name(), f.Name, sf.rule))
			}
			sf.rule, sf.weight = "mean", w.Index[0]
		} else if sf.rule != "" && sf.rule != "max" && sf.rule != "first" {
			panic(fmt.Sprintf("engine: %s.%s: unknown merge tag %q", t.Name(), f.Name, sf.rule))
		}
		fields[i] = sf
	}
	return fields
}

// MergeStats folds snapshots (a router's shards) into one Stats of the
// same shape, each field by the rule its merge tag declares.
func MergeStats(per []Stats) Stats {
	var m Stats
	if len(per) == 0 {
		return m
	}
	in := make([]reflect.Value, len(per))
	for j := range per {
		in[j] = reflect.ValueOf(&per[j]).Elem()
	}
	out := reflect.ValueOf(&m).Elem()
	for i, f := range StatsFields {
		if f.Kind == reflect.Float64 {
			out.Field(i).SetFloat(mergeField(f, in, i, reflect.Value.Float))
		} else {
			out.Field(i).SetInt(mergeField(f, in, i, reflect.Value.Int))
		}
	}
	return m
}

// mergeField folds field i of every snapshot by f's rule.
func mergeField[T int64 | float64](f StatsField, in []reflect.Value, i int, get func(reflect.Value) T) T {
	if f.rule == "first" {
		return get(in[0].Field(i))
	}
	var acc, weights T
	for _, s := range in {
		x := get(s.Field(i))
		switch f.rule {
		case "":
			acc += x
		case "max":
			if x > acc {
				acc = x
			}
		case "mean":
			w := T(s.Field(f.weight).Int())
			acc += x * w
			weights += w
		}
	}
	if weights > 0 {
		acc /= weights
	}
	return acc
}
