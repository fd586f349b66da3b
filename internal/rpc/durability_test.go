package rpc

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/shard"
)

// TestDurabilityStatsOverRPC runs a sharded store with the WAL on
// behind the server and checks the durability counters per sync
// policy. Under always, every acked insert is one WAL commit, group
// commit bounds syncs by commits, and the per-shard breakdown sums to
// the aggregate. Under none — the paper's timing profile — nothing is
// ever fsynced.
func TestDurabilityStatsOverRPC(t *testing.T) {
	for _, policy := range []string{engine.WALSyncNone, engine.WALSyncAlways} {
		t.Run(policy, func(t *testing.T) {
			r, err := shard.Open(shard.Config{
				Config: engine.Config{
					Dir:       t.TempDir(),
					SyncFlush: true,
					WAL:       true,
					WALSync:   policy,
				},
				ShardCount: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(r)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				srv.Close()
				r.Close()
			})
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			for i := 0; i < 8; i++ {
				s := "d" + string(rune('0'+i)) + ".s0"
				if err := c.InsertBatch(s, []int64{1, 2}, []float64{1, 2}); err != nil {
					t.Fatal(err)
				}
			}
			agg, per, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if len(per) != 2 {
				t.Fatalf("per-shard breakdown has %d entries, want 2", len(per))
			}
			if policy == engine.WALSyncNone {
				if agg.WALSyncs != 0 {
					t.Fatalf("WALSync none issued %d syncs", agg.WALSyncs)
				}
				return
			}
			if agg.WALCommits != 8 {
				t.Fatalf("aggregate WALCommits = %d, want 8", agg.WALCommits)
			}
			if agg.WALSyncs <= 0 || agg.WALSyncs > agg.WALCommits {
				t.Fatalf("aggregate WALSyncs = %d, want in (0, %d]", agg.WALSyncs, agg.WALCommits)
			}
			var sum int64
			for _, s := range per {
				sum += s.WALCommits
			}
			if sum != agg.WALCommits {
				t.Fatalf("per-shard WALCommits sum %d != aggregate %d", sum, agg.WALCommits)
			}
		})
	}
}

// TestClientRetriesAcrossRestart kills the server between two queries
// and restarts it on the same address: the idempotent Query must
// transparently redial and succeed, while the original connection is
// long dead.
func TestClientRetriesAcrossRestart(t *testing.T) {
	e := openRouter(t, engine.Config{Dir: t.TempDir(), SyncFlush: true})
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.InsertBatch("s", []int64{1, 2, 3}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(e)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	t.Cleanup(func() { srv2.Close() })

	got, err := c.Query("s", 0, 10)
	if err != nil {
		t.Fatalf("query across restart: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("query across restart returned %d points, want 3", len(got))
	}
}

// TestInsertDoesNotRetry pins the write-path policy: a transport
// failure on InsertBatch surfaces to the caller instead of silently
// redialing — the client cannot know whether the lost response meant a
// lost write.
func TestInsertDoesNotRetry(t *testing.T) {
	e := openRouter(t, engine.Config{Dir: t.TempDir(), SyncFlush: true})
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(e)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	if err := c.InsertBatch("s", []int64{1}, []float64{1}); err == nil {
		t.Fatal("insert over a dead connection succeeded; write was silently retried")
	}
}

// TestReadTimeoutDropsIdleConn arms a short server read deadline and
// verifies an idle connection is dropped, while a fresh one still
// serves.
func TestReadTimeoutDropsIdleConn(t *testing.T) {
	e := openRouter(t, engine.Config{Dir: t.TempDir(), SyncFlush: true})
	srv := NewServer(e)
	srv.SetTimeouts(50*time.Millisecond, time.Second)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Handshake, then go idle past the read deadline.
	if err := writeFrame(conn, OpHello, helloPayload()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrame(conn); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	conn.SetReadDeadline(deadline)
	if _, _, err := readFrame(conn); err == nil {
		t.Fatal("idle connection not dropped by server read timeout")
	} else if strings.Contains(err.Error(), "i/o timeout") {
		t.Fatalf("server kept idle connection past its deadline: %v", err)
	}

	// The server is still serving new connections.
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dial after idle drop: %v", err)
	}
	defer c.Close()
	if _, _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulShutdownDrains verifies Shutdown lets an in-flight
// exchange complete (and its connection close cleanly) instead of
// cutting it mid-response, and that post-shutdown dials are refused.
func TestGracefulShutdownDrains(t *testing.T) {
	e := openRouter(t, engine.Config{Dir: t.TempDir(), SyncFlush: true})
	srv := NewServer(e)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.InsertBatch("s", []int64{1}, []float64{1}); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(2 * time.Second) }()
	// The connected client's next (non-retrying) exchange either
	// completes — shutdown had not reached it — or fails because its
	// connection was drained; both are fine. What must hold: Shutdown
	// returns promptly and new dials are refused.
	c.call(OpFlush, nil)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not drain")
	}
	if _, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		t.Fatal("server accepted a connection after shutdown")
	}
}
