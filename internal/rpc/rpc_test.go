package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/wal"
)

// openRouter opens the one-shard router a default tsdbd serves; it
// closes when the test ends.
func openRouter(tb testing.TB, cfg engine.Config) *shard.Router {
	tb.Helper()
	r, err := shard.Open(shard.Config{Config: cfg, ShardCount: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	return r
}

func startServer(t *testing.T) (*shard.Router, string) {
	t.Helper()
	e := openRouter(t, engine.Config{
		Dir:          t.TempDir(),
		MemTableSize: 1000,
		SyncFlush:    true,
	})
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return e, addr
}

// TestInsertPayloadIsWALRecord pins the one batch encoding: the
// OpInsert payload a client sends is byte for byte the payload of the
// WAL record the engine logs for that batch.
func TestInsertPayloadIsWALRecord(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(openRouter(t, engine.Config{Dir: dir, WAL: true, SyncFlush: true}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	times := []int64{500, 100, 300, 300, math.MaxInt64, -7}
	values := []float64{1.5, math.Inf(-1), 2, 3, math.MaxFloat64, 0}
	sent, err := encodeInsert("cpu,host=a.usage", times, values)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InsertBatch("cpu,host=a.usage", times, values); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "shard-000", "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("WAL segments %v (%v), want one", segs, err)
	}
	var logged [][]byte
	if err := wal.ReadFrames(segs[0], "wal", MaxFrame, func(payload []byte, _ int64) error {
		logged = append(logged, bytes.Clone(payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(logged) != 1 || !bytes.Equal(logged[0], sent) {
		t.Fatalf("WAL records %x, want the one insert payload %x", logged, sent)
	}
}

func TestClientServerRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.InsertBatch("s", []int64{5, 1, 3}, []float64{50, 10, 30}); err != nil {
		t.Fatal(err)
	}
	out, err := c.Query("s", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0].T != 1 || out[1].T != 3 || out[2].T != 5 || out[2].V != 50 {
		t.Fatalf("query = %+v", out)
	}
	for _, r := range []struct{ minT, maxT int64 }{{0, 10}, {2, 4}, {6, 9}} {
		n, err := c.QueryCount("s", r.minT, r.maxT)
		want, _ := c.Query("s", r.minT, r.maxT)
		if err != nil || n != len(want) {
			t.Fatalf("QueryCount[%d,%d] = %d, %v; Query holds %d", r.minT, r.maxT, n, err, len(want))
		}
	}

	latest, ok, err := c.Latest("s")
	if err != nil || !ok || latest != 5 {
		t.Fatalf("latest = %d,%v,%v", latest, ok, err)
	}
	_, ok, err = c.Latest("ghost")
	if err != nil || ok {
		t.Fatalf("ghost latest should be absent: %v %v", ok, err)
	}

	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	st, _, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.FlushCount != 1 || st.SeqPoints != 3 {
		t.Fatalf("stats = %+v", st)
	}

	// Data survives the flush.
	out, err = c.Query("s", 0, 10)
	if err != nil || len(out) != 3 {
		t.Fatalf("post-flush query = %+v, %v", out, err)
	}
}

func TestRemoteErrorSurfaced(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Engine rejects shape mismatches server-side; force one with a
	// hand-rolled payload (client validates, so craft the frame).
	payload := appendString(nil, "s")
	payload = append(payload, 0x01) // n = 1, but no record bytes follow
	if _, err := c.call(OpInsert, payload); err == nil {
		t.Fatal("malformed payload accepted")
	} else if !errors.Is(err, ErrRemote) {
		t.Fatalf("expected ErrRemote, got %v", err)
	}
}

func TestUnknownOpcode(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.call(99, nil); !errors.Is(err, ErrRemote) {
		t.Fatalf("unknown opcode: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			sensor := fmt.Sprintf("s%d", w)
			for i := 0; i < 50; i++ {
				if err := c.InsertBatch(sensor, []int64{int64(i)}, []float64{float64(i)}); err != nil {
					errCh <- err
					return
				}
			}
			out, err := c.Query(sensor, 0, 100)
			if err != nil {
				errCh <- err
				return
			}
			if len(out) != 50 {
				errCh <- fmt.Errorf("client %d saw %d points", w, len(out))
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestBenchOverRPC(t *testing.T) {
	// The full client-server benchmark loop: the client satisfies
	// bench.Target.
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var target bench.Target = c
	res, err := bench.Run(target, bench.Config{
		WritePercent: 0.8,
		BatchSize:    100,
		Operations:   50,
		Devices:      2,
		Dataset:      "lognormal",
		Mu:           1,
		Sigma:        1,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteOps == 0 || res.PointsWritten == 0 {
		t.Fatalf("rpc bench did nothing: %+v", res)
	}
}

func TestAggregateOverRPC(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Out-of-order inserts; server sorts, aggregates per window of 10.
	if err := c.InsertBatch("s", []int64{15, 3, 1, 12, 7}, []float64{15, 3, 1, 12, 7}); err != nil {
		t.Fatal(err)
	}
	wins, err := c.Aggregate("s", 0, 20, 10, query.Avg)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 2 {
		t.Fatalf("windows = %+v", wins)
	}
	// [0,10): 1,3,7 → avg 11/3; [10,20): 12,15 → 13.5.
	if wins[0].Count != 3 || wins[1].Count != 2 || wins[1].Value != 13.5 {
		t.Fatalf("windows = %+v", wins)
	}
	// Invalid window surfaces as a remote error.
	if _, err := c.Aggregate("s", 0, 20, 0, query.Avg); !errors.Is(err, ErrRemote) {
		t.Fatalf("invalid window: %v", err)
	}
}

func TestSettleOverRPC(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
}

func TestFrameLimits(t *testing.T) {
	// Frames above MaxFrame are rejected on write.
	if err := writeFrame(discard{}, 0, make([]byte, MaxFrame)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func TestServerCloseIdempotent(t *testing.T) {
	e := openRouter(t, engine.Config{Dir: t.TempDir(), SyncFlush: true})
	srv := NewServer(e)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
