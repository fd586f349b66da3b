package repro_test

import (
	"net"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/shard"
	"repro/internal/tsql"
	"repro/internal/wal"
)

// TestFullStackLifecycle drives the entire system through one
// realistic lifecycle: WAL-protected out-of-order ingestion over TCP,
// flushing, a crash, recovery, compaction, SQL queries and windowed
// aggregation — every subsystem in one scenario.
func TestFullStackLifecycle(t *testing.T) {
	dir := t.TempDir()

	// Phase 1: ingest out-of-order data over the wire with WAL on, into
	// the one-shard router a default tsdbd serves.
	cfg := shard.Config{
		Config: engine.Config{
			Dir:          dir,
			MemTableSize: 5000,
			Algorithm:    "backward",
			WAL:          true,
			SyncFlush:    true,
		},
		ShardCount: 1,
	}
	e1, err := shard.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(e1)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}

	s := dataset.CitiBike201808(12000, 77)
	const batch = 500
	for i := 0; i < s.Len(); i += batch {
		end := i + batch
		if end > s.Len() {
			end = s.Len()
		}
		if err := client.InsertBatch("bike.trips", s.Times[i:end], s.Values[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	// Windowed aggregation over the wire while data spans memtable,
	// flushing units and files.
	wins, err := client.Aggregate("bike.trips", 0, 12000*1000, 1200*1000, query.Count)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, w := range wins {
		total += w.Count
	}
	if total != 12000 {
		t.Fatalf("remote aggregation saw %d of 12000 points", total)
	}
	client.Close()
	srv.Close()

	// Phase 2: "crash" — abandon e1 without Close. The last partial
	// generation lives only in the WAL.
	e1.WaitFlushes()

	// Phase 3: recover, compact, and interrogate through SQL.
	e2, err := shard.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()

	res, err := tsql.Run(e2, "SELECT count(value) FROM bike.trips WHERE time >= 0 AND time <= 11999999 GROUP BY WINDOW(12000000)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][2] != "12000" {
		t.Fatalf("post-recovery count = %+v", res.Rows)
	}

	if _, err := tsql.Run(e2, "COMPACT"); err != nil {
		t.Fatal(err)
	}
	if e2.FileCount() != 1 {
		t.Fatalf("files after compaction = %d", e2.FileCount())
	}
	segs, _ := wal.Segments(filepath.Join(dir, "shard-000"))
	if len(segs) != 1 { // only the fresh active segment
		t.Fatalf("unexpected WAL segments: %v", segs)
	}

	// Phase 4: every point is still there, sorted, after the full
	// lifecycle.
	out, err := e2.Query("bike.trips", -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 12000 {
		t.Fatalf("final count = %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].T > out[i].T {
			t.Fatal("final data unsorted")
		}
	}
	for _, tv := range out {
		if tv.V != dataset.Signal(tv.T) {
			t.Fatal("a value decoupled from its timestamp somewhere in the stack")
		}
	}
}

// TestBenchmarkAgainstEveryAlgorithmEndToEnd smoke-runs the benchmark
// harness against all six paper algorithms in-process, each behind a
// one-shard router.
func TestBenchmarkAgainstEveryAlgorithmEndToEnd(t *testing.T) {
	for _, algo := range []string{"backward", "tim", "patience", "quick", "ck", "y"} {
		e, err := shard.Open(shard.Config{ShardCount: 1, Config: engine.Config{
			Dir:          filepath.Join(t.TempDir(), algo),
			MemTableSize: 2000,
			Algorithm:    algo,
			SyncFlush:    true,
		}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := bench.Run(bench.EngineTarget{E: e}, bench.Config{
			WritePercent: 0.8,
			BatchSize:    200,
			Operations:   40,
			Devices:      2,
			Dataset:      "lognormal",
			Mu:           1,
			Sigma:        2,
			Clients:      2,
			Seed:         9,
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.PointsWritten == 0 || res.FlushCount == 0 {
			t.Fatalf("%s: degenerate run %+v", algo, res)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("%s: close: %v", algo, err)
		}
	}
}

// TestServerSurvivesHostileClients throws malformed frames at the TCP
// server and verifies well-behaved clients keep working.
func TestServerSurvivesHostileClients(t *testing.T) {
	e, err := shard.Open(shard.Config{Config: engine.Config{Dir: t.TempDir(), SyncFlush: true}, ShardCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := rpc.NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Hostile: garbage bytes, oversized frame header, empty frame.
	for _, raw := range [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		{0xFF, 0xFF, 0xFF, 0xFF, 1},
		{0, 0, 0, 0},
	} {
		conn, err := dialRaw(addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(raw)
		conn.Close()
	}

	// A well-behaved client still gets service.
	c, err := rpc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.InsertBatch("s", []int64{1}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	out, err := c.Query("s", 0, 2)
	if err != nil || len(out) != 1 {
		t.Fatalf("post-hostility query: %v %v", out, err)
	}
}

func dialRaw(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
