package shard

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/query"
)

// TestRoutingStable pins the hash function: routing is a pure function
// of (sensor, N), identical across processes and restarts. The golden
// values catch an accidental change to the FNV-1a constants or fold
// order — which would orphan every existing sharded data directory.
func TestRoutingStable(t *testing.T) {
	golden := []struct {
		sensor string
		n      int
		want   int
	}{
		{"", 4, 1},
		{"a", 4, 0},
		{"d0.s0", 4, 2},
		{"d0.s0", 1, 0},
		{"room.temp", 7, 2},
	}
	// Belt and braces: a hand-rolled FNV-1a fold must agree too, so a
	// refactor of Index cannot drift with the golden table.
	fold := func(s string) uint64 {
		h := uint64(14695981039346656037)
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		return h
	}
	for _, g := range golden {
		if got := Index(g.sensor, g.n); got != g.want {
			t.Fatalf("Index(%q, %d) = %d, want %d", g.sensor, g.n, got, g.want)
		}
		if got, want := Index(g.sensor, g.n), int(fold(g.sensor)%uint64(g.n)); got != want {
			t.Fatalf("Index(%q, %d) = %d, FNV-1a fold says %d", g.sensor, g.n, got, want)
		}
	}

	// Property: stable across calls, in range, and every shard of a
	// 4-way split is reachable from a modest sensor population.
	r := rand.New(rand.NewSource(7))
	hit := make([]bool, 4)
	for i := 0; i < 2000; i++ {
		sensor := fmt.Sprintf("d%d.s%d", r.Intn(64), r.Intn(8))
		idx := Index(sensor, 4)
		if idx < 0 || idx >= 4 {
			t.Fatalf("Index(%q, 4) = %d out of range", sensor, idx)
		}
		if idx != Index(sensor, 4) {
			t.Fatalf("Index(%q, 4) unstable", sensor)
		}
		hit[idx] = true
	}
	for i, h := range hit {
		if !h {
			t.Fatalf("shard %d unreachable across 2000 sensors", i)
		}
	}
}

// TestRoutingStableAcrossRestart writes through a router, reopens the
// directory, and checks every sensor still reads from the shard that
// holds its data (same sensor → same shard across restarts).
func TestRoutingStableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{ShardCount: 4, Config: engine.Config{Dir: dir, MemTableSize: 100, SyncFlush: true}}
	r1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sensors := make([]string, 24)
	for i := range sensors {
		sensors[i] = fmt.Sprintf("dev%d.sen%d", i/3, i%3)
		if err := r1.Insert(sensors[i], int64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	r1.Flush()
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	for i, s := range sensors {
		out, err := r2.Query(s, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0].T != int64(i) || out[0].V != float64(i) {
			t.Fatalf("sensor %q after restart: %+v", s, out)
		}
	}
}

// TestShardCountMismatchRejected: reopening with a different N would
// silently strand data on unreachable shards, so Open must refuse. So
// must opening a root that holds an unsharded engine store: its chunk
// files and WAL segments sit where no shard looks.
func TestShardCountMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(Config{ShardCount: 4, Config: engine.Config{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{ShardCount: 2, Config: engine.Config{Dir: dir}}); err == nil {
		t.Fatal("reopening 4-shard dir with 2 shards should fail")
	}

	flat := t.TempDir()
	e, err := engine.Open(engine.Config{Dir: flat, MemTableSize: 10, SyncFlush: true, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for i := 0; i < 25; i++ { // flushed chunk files plus an open WAL segment
		if err := e.Insert("s", int64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{1, 2} {
		_, err := Open(Config{ShardCount: n, Config: engine.Config{Dir: flat, WAL: true}})
		if err == nil || !strings.Contains(err.Error(), "shard-000") {
			t.Fatalf("%d shard(s) over an engine store: err = %v, want a refusal naming shard-000", n, err)
		}
		if dirs, _ := filepath.Glob(filepath.Join(flat, "shard-*")); len(dirs) != 0 {
			t.Fatalf("%d shard(s): refused open created %v", n, dirs)
		}
	}
}

// opRecord is one step of the recorded op sequence the equivalence
// test replays against both implementations.
type opRecord struct {
	kind   string // insert, query, latest, flush, compact, agg
	sensor string
	times  []int64
	values []float64
	minT   int64
	maxT   int64
}

// TestOneShardRouterMatchesBareEngine replays a recorded op sequence —
// out-of-order inserts, range queries, latest, flush, compact,
// windowed aggregation — against a bare engine and a 1-shard router
// with identical configs, and requires byte-for-byte identical results
// and identical data-path stats. This is the contract that lets
// cmd/repro run through the shard layer with ShardCount pinned to 1
// while still reproducing the paper's single-engine figures.
func TestOneShardRouterMatchesBareEngine(t *testing.T) {
	engCfg := engine.Config{MemTableSize: 300, SyncFlush: true}

	bareCfg := engCfg
	bareCfg.Dir = t.TempDir()
	bare, err := engine.Open(bareCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()

	routedCfg := engCfg
	routedCfg.Dir = t.TempDir()
	routed, err := Open(Config{ShardCount: 1, Config: routedCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer routed.Close()

	r := rand.New(rand.NewSource(42))
	sensors := []string{"d0.s0", "d0.s1", "d1.s0", "room.temp"}
	var ops []opRecord
	tick := int64(0)
	for i := 0; i < 400; i++ {
		sensor := sensors[r.Intn(len(sensors))]
		switch k := r.Intn(10); {
		case k < 6: // out-of-order batch insert
			n := 1 + r.Intn(20)
			times := make([]int64, n)
			values := make([]float64, n)
			for j := range times {
				tick++
				times[j] = tick - int64(r.Intn(50)) // delayed arrivals
				values[j] = float64(r.Intn(1000))
			}
			ops = append(ops, opRecord{kind: "insert", sensor: sensor, times: times, values: values})
		case k < 8:
			lo := int64(r.Intn(int(tick + 1)))
			ops = append(ops, opRecord{kind: "query", sensor: sensor, minT: lo, maxT: lo + int64(r.Intn(200))})
		case k == 8:
			ops = append(ops, opRecord{kind: "latest", sensor: sensor})
		default:
			switch r.Intn(3) {
			case 0:
				ops = append(ops, opRecord{kind: "flush"})
			case 1:
				ops = append(ops, opRecord{kind: "compact"})
			default:
				ops = append(ops, opRecord{kind: "agg", sensor: sensor, minT: 0, maxT: tick + 1})
			}
		}
	}

	for i, op := range ops {
		switch op.kind {
		case "insert":
			errB := bare.InsertBatch(op.sensor, op.times, op.values)
			errR := routed.InsertBatch(op.sensor, op.times, op.values)
			if (errB == nil) != (errR == nil) {
				t.Fatalf("op %d insert: bare err %v, routed err %v", i, errB, errR)
			}
		case "query":
			outB, errB := bare.Query(op.sensor, op.minT, op.maxT)
			outR, errR := routed.Query(op.sensor, op.minT, op.maxT)
			if (errB == nil) != (errR == nil) {
				t.Fatalf("op %d query: bare err %v, routed err %v", i, errB, errR)
			}
			if len(outB) != len(outR) {
				t.Fatalf("op %d query: %d vs %d records", i, len(outB), len(outR))
			}
			for j := range outB {
				if outB[j] != outR[j] {
					t.Fatalf("op %d query record %d: %+v vs %+v", i, j, outB[j], outR[j])
				}
			}
		case "latest":
			tB, okB := bare.LatestTime(op.sensor)
			tR, okR := routed.LatestTime(op.sensor)
			if tB != tR || okB != okR {
				t.Fatalf("op %d latest: (%d,%v) vs (%d,%v)", i, tB, okB, tR, okR)
			}
		case "flush":
			bare.Flush()
			routed.Flush()
		case "compact":
			errB := bare.Compact()
			errR := routed.Compact()
			if (errB == nil) != (errR == nil) {
				t.Fatalf("op %d compact: bare err %v, routed err %v", i, errB, errR)
			}
		case "agg":
			winB, errB := query.WindowQuery(bare, op.sensor, op.minT, op.maxT, 64, query.Avg)
			winR, errR := routed.Aggregate(op.sensor, op.minT, op.maxT, 64, query.Avg)
			if (errB == nil) != (errR == nil) {
				t.Fatalf("op %d agg: bare err %v, routed err %v", i, errB, errR)
			}
			if len(winB) != len(winR) {
				t.Fatalf("op %d agg: %d vs %d windows", i, len(winB), len(winR))
			}
			for j := range winB {
				if winB[j] != winR[j] {
					t.Fatalf("op %d agg window %d: %+v vs %+v", i, j, winB[j], winR[j])
				}
			}
		}
	}

	// Data-path stats must agree exactly (timings may not).
	sB, sR := bare.Stats(), routed.Stats()
	if sB.SeqPoints != sR.SeqPoints || sB.UnseqPoints != sR.UnseqPoints ||
		sB.FlushCount != sR.FlushCount || sB.Files != sR.Files ||
		sB.MemTablePoints != sR.MemTablePoints {
		t.Fatalf("stats diverge:\nbare   %+v\nrouted %+v", sB, sR)
	}
	if got := bare.FileCount(); got != routed.FileCount() {
		t.Fatalf("file counts diverge: %d vs %d", got, routed.FileCount())
	}
}

// TestFanOutCollectsFirstError: Compact after Close must surface the
// per-shard failure, not swallow it.
func TestFanOutCollectsFirstError(t *testing.T) {
	r, err := Open(Config{ShardCount: 2, Config: engine.Config{Dir: t.TempDir(), SyncFlush: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Compact(); err == nil {
		t.Fatal("Compact on closed router should fail")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestMergeStats checks the aggregate arithmetic: counters sum,
// averages weight by their denominators, maxima take the max.
func TestMergeStats(t *testing.T) {
	per := []engine.Stats{
		{FlushCount: 1, AvgFlushMillis: 10, SeqPoints: 100, Files: 2, LockWaits: 4, AvgLockWaitMicros: 8, MaxLockWaitMicros: 50, FlushWorkers: 3},
		{FlushCount: 3, AvgFlushMillis: 2, SeqPoints: 50, Files: 1, LockWaits: 0, MaxLockWaitMicros: 10, FlushWorkers: 3},
		{FlushWorkers: 3},
	}
	m := engine.MergeStats(per)
	if m.FlushCount != 4 || m.SeqPoints != 150 || m.Files != 3 {
		t.Fatalf("sums wrong: %+v", m)
	}
	if want := (10.0*1 + 2.0*3) / 4; m.AvgFlushMillis != want {
		t.Fatalf("AvgFlushMillis = %v, want %v", m.AvgFlushMillis, want)
	}
	if m.AvgLockWaitMicros != 8 { // only shard 0 waited
		t.Fatalf("AvgLockWaitMicros = %v, want 8", m.AvgLockWaitMicros)
	}
	if m.MaxLockWaitMicros != 50 || m.FlushWorkers != 3 {
		t.Fatalf("max/echo wrong: %+v", m)
	}
	if z := engine.MergeStats(nil); z != (engine.Stats{}) {
		t.Fatalf("MergeStats(nil) = %+v", z)
	}
}

// TestRouterSpreadsSensors: with enough sensors every shard of a
// 4-shard router ingests data, and per-shard stats see it.
func TestRouterSpreadsSensors(t *testing.T) {
	r, err := Open(Config{ShardCount: 4, Config: engine.Config{Dir: t.TempDir(), SyncFlush: true, MemTableSize: 50}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for d := 0; d < 16; d++ {
		for s := 0; s < 4; s++ {
			sensor := fmt.Sprintf("d%d.s%d", d, s)
			if err := r.Insert(sensor, int64(d*10+s), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	merged, per := r.StatsAll()
	if len(per) != 4 {
		t.Fatalf("len(per) = %d", len(per))
	}
	var sum int64
	for i, s := range per {
		if s.SeqPoints+s.UnseqPoints == 0 {
			t.Fatalf("shard %d ingested nothing", i)
		}
		sum += s.SeqPoints + s.UnseqPoints
	}
	if sum != 64 || merged.SeqPoints+merged.UnseqPoints != 64 {
		t.Fatalf("points: per-shard sum %d, merged %d, want 64", sum, merged.SeqPoints+merged.UnseqPoints)
	}
	// The CI client/server step runs `tsbench -devices 8` against a
	// 4-shard tsdbd and requires every shard to ingest: the bench's
	// sensor names d0.s0..d7.s0 must reach all four shards.
	hit := map[int]bool{}
	for d := 0; d < 8; d++ {
		hit[Index(fmt.Sprintf("d%d.s0", d), 4)] = true
	}
	if len(hit) != 4 {
		t.Fatalf("tsbench's 8 device sensors reach only %d of 4 shards", len(hit))
	}
}

// TestOpenRejectsBadConfig covers the config validation paths.
func TestOpenRejectsBadConfig(t *testing.T) {
	if _, err := Open(Config{ShardCount: -1, Config: engine.Config{Dir: t.TempDir()}}); err == nil {
		t.Fatal("negative ShardCount should fail")
	}
	if _, err := Open(Config{ShardCount: 2}); err == nil {
		t.Fatal("missing Dir should fail")
	}
	if _, err := Open(Config{ShardCount: 2, Config: engine.Config{Dir: t.TempDir(), Algorithm: "nope"}}); err == nil {
		t.Fatal("unknown algorithm should fail per shard")
	}
}

// TestRouterNoGoroutineOutlivesDrains: shards share one flush bound
// that holds no goroutines, so once WaitFlushes returns, and again
// after Close, a router without a WAL ticker is back at the goroutine
// count the process had before Open.
func TestRouterNoGoroutineOutlivesDrains(t *testing.T) {
	settle := func(base int) int {
		n := runtime.NumGoroutine()
		for i := 0; i < 400 && n > base; i++ {
			time.Sleep(5 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		return n
	}
	base := settle(runtime.NumGoroutine())
	r, err := Open(Config{ShardCount: 2, Config: engine.Config{Dir: t.TempDir(), MemTableSize: 200, FlushWorkers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 10; b++ {
		for s := 0; s < 8; s++ {
			times := make([]int64, 60)
			values := make([]float64, 60)
			for i := range times {
				times[i] = int64(b*60 + i)
			}
			if err := r.InsertBatch(fmt.Sprintf("d0.s%d", s), times, values); err != nil {
				t.Fatal(err)
			}
		}
	}
	r.WaitFlushes()
	if st := r.Stats(); st.FlushCount < 4 {
		t.Fatalf("only %d flushes: the workload should pass several memtables per shard", st.FlushCount)
	}
	if n := settle(base); n != base {
		t.Fatalf("after WaitFlushes: %d goroutines, baseline %d", n, base)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if n := settle(base); n != base {
		t.Fatalf("after Close: %d goroutines, baseline %d", n, base)
	}
}
