package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/ingestq"
	"repro/internal/winagg"
)

// blockingBackend wedges every InsertBatch until release is closed,
// so overload tests can hold the worker pool busy deterministically.
// All other ops answer immediately.
type blockingBackend struct {
	started chan struct{} // closed when the first insert begins
	release chan struct{}
	once    sync.Once
}

func newBlockingBackend() *blockingBackend {
	return &blockingBackend{started: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockingBackend) InsertBatch(string, []int64, []float64) error {
	b.once.Do(func() { close(b.started) })
	<-b.release
	return nil
}
func (b *blockingBackend) Query(string, int64, int64) ([]engine.TV, error) { return nil, nil }
func (b *blockingBackend) LatestTime(string) (int64, bool)                 { return 0, false }
func (b *blockingBackend) AggregateWindows(string, int64, int64, int64, winagg.Op) ([]winagg.Window, error) {
	return nil, nil
}
func (b *blockingBackend) StatsAll() (engine.Stats, []engine.Stats) {
	return engine.Stats{}, []engine.Stats{{}}
}
func (b *blockingBackend) Flush()       {}
func (b *blockingBackend) WaitFlushes() {}

// TestPipelinedConcurrentCalls hammers one connection from many
// goroutines: the tag table must route every reply to its caller with
// no cross-talk, and the server must report the connection as
// pipelined.
func TestPipelinedConcurrentCalls(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const goroutines = 16
	const opsEach = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sensor := fmt.Sprintf("s%d", g)
			for i := 0; i < opsEach; i++ {
				if err := c.InsertBatch(sensor, []int64{int64(i)}, []float64{float64(g)}); err != nil {
					errs <- fmt.Errorf("insert: %w", err)
					return
				}
			}
			pts, err := c.Query(sensor, 0, int64(opsEach))
			if err != nil {
				errs <- fmt.Errorf("query: %w", err)
				return
			}
			if len(pts) != opsEach {
				errs <- fmt.Errorf("sensor %s: got %d points, want %d", sensor, len(pts), opsEach)
				return
			}
			for _, p := range pts {
				if p.V != float64(g) {
					errs <- fmt.Errorf("sensor %s: cross-talk, value %v", sensor, p.V)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st, _, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PipelinedConns < 1 {
		t.Fatalf("conn counter: pipelined=%d", st.PipelinedConns)
	}
	if st.IngestEnqueued == 0 {
		t.Fatalf("pipelined ops bypassed the dispatch queue")
	}
}

// TestInsertBatchAsyncPipelines issues a window of async inserts
// before collecting any reply, then confirms every point landed.
func TestInsertBatchAsyncPipelines(t *testing.T) {
	e, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const depth = 32
	pending := make([]*PendingInsert, depth)
	for i := range pending {
		pending[i] = c.InsertBatchAsync("a", []int64{int64(i)}, []float64{1})
	}
	for i, p := range pending {
		if err := p.Wait(); err != nil {
			t.Fatalf("async insert %d: %v", i, err)
		}
	}
	e.Flush()
	e.WaitFlushes()
	pts, err := c.Query("a", 0, depth)
	if err != nil || len(pts) != depth {
		t.Fatalf("query = %d points, %v; want %d", len(pts), err, depth)
	}
}

// TestOverloadedRPC pins the overload path end to end: with a
// one-slot queue and its single worker wedged, the third in-flight
// insert must come back as StatusOverloaded — carrying a retry-after
// hint, not executing, and leaving the connection healthy.
func TestOverloadedRPC(t *testing.T) {
	b := newBlockingBackend()
	srv := NewServer(b)
	q := ingestq.New(1, 1)
	t.Cleanup(q.Close)
	srv.SetIngestQueue(q)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p1 := c.InsertBatchAsync("s", []int64{1}, []float64{1})
	<-b.started                                             // worker is now wedged inside p1
	p2 := c.InsertBatchAsync("s", []int64{2}, []float64{2}) // occupies the only queue slot
	p3 := c.InsertBatchAsync("s", []int64{3}, []float64{3}) // nowhere to go

	err = p3.Wait()
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third insert: %v, want ErrOverloaded", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("overload carries no retry-after hint: %v", err)
	}

	close(b.release)
	if err := p1.Wait(); err != nil {
		t.Fatalf("wedged insert: %v", err)
	}
	if err := p2.Wait(); err != nil {
		t.Fatalf("queued insert: %v", err)
	}
	// The connection survived the rejection: a fresh call works.
	if _, err := c.Query("s", 0, 10); err != nil {
		t.Fatalf("connection dead after overload: %v", err)
	}
	st, _, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.IngestRejected < 1 {
		t.Fatalf("IngestRejected = %d, want >= 1", st.IngestRejected)
	}
}

// TestOverloadRetriesInIdempotentPath: an idempotent call hitting a
// wedged queue backs off on the hint and succeeds once capacity
// returns, without redialing.
func TestOverloadRetriesInIdempotentPath(t *testing.T) {
	b := newBlockingBackend()
	srv := NewServer(b)
	q := ingestq.New(1, 1)
	t.Cleanup(q.Close)
	srv.SetIngestQueue(q)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.InsertBatchAsync("s", []int64{1}, []float64{1})
	<-b.started
	c.InsertBatchAsync("s", []int64{2}, []float64{2})
	go func() {
		time.Sleep(30 * time.Millisecond)
		close(b.release)
	}()
	if err := c.Flush(); err != nil {
		t.Fatalf("idempotent call did not recover from overload: %v", err)
	}
	if st, _, _ := c.Stats(); st.PipelinedConns != 1 {
		t.Fatalf("overload recovery redialed: %d conns", st.PipelinedConns)
	}
}

// TestRedialSingleFlight (the redial-race fix): when the server
// restarts, many concurrent idempotent calls must funnel through ONE
// reconnect — the replacement server sees a single connection, and no
// loser socket leaks.
func TestRedialSingleFlight(t *testing.T) {
	e := openRouter(t, engine.Config{Dir: t.TempDir(), MemTableSize: 1000, SyncFlush: true})
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

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Query("s", 0, 10); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, _, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.PipelinedConns != 1 {
		t.Fatalf("redial opened %d connections to the new server, want 1", st.PipelinedConns)
	}
}

// TestIdleSweepClosesIdleConns: with an idle timeout armed, a
// connection with nothing in flight is closed by the sweeper, while
// the Dial-level client transparently redials on its next call.
func TestIdleSweepClosesIdleConns(t *testing.T) {
	e := openRouter(t, engine.Config{Dir: t.TempDir(), MemTableSize: 1000, SyncFlush: true})
	srv := NewServer(e)
	srv.SetIdleTimeout(100 * time.Millisecond)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// A raw handshaken connection left idle gets hung up on.
	conn, br, bw := rawDial(t, addr)
	if status, _ := rawCall(t, br, bw, OpHello, helloPayload()); status != StatusOK {
		t.Fatal("handshake refused")
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, _, _, err := readTaggedFrame(br); err == nil {
		t.Fatal("idle connection was not closed by the sweeper")
	} else if ne, ok := err.(interface{ Timeout() bool }); ok && ne.Timeout() {
		t.Fatal("sweeper never closed the idle connection (local deadline hit instead)")
	}

	// The real client rides it out: its next idempotent call redials.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("s", 0, 10); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if _, err := c.Query("s", 0, 10); err != nil {
		t.Fatalf("query after idle sweep: %v", err)
	}
}

// TestPerFrameDeadlineReset: a session whose individual exchanges all
// beat the read timeout survives indefinitely, even once the total
// session time exceeds it — the deadline must reset per frame, not
// run once per connection.
func TestPerFrameDeadlineReset(t *testing.T) {
	e := openRouter(t, engine.Config{Dir: t.TempDir(), MemTableSize: 1000, SyncFlush: true})
	srv := NewServer(e)
	srv.SetTimeouts(200*time.Millisecond, time.Second)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 6; i++ { // 6 x 100ms = 3x the read timeout
		if err := c.InsertBatch("s", []int64{int64(i)}, []float64{1}); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestNoGoroutineLeakAfterDrain: after pipelined load, closing the
// clients and draining the server returns the process to its
// goroutine baseline — no reader, writer, demux, worker, or sweeper
// goroutines left behind.
func TestNoGoroutineLeakAfterDrain(t *testing.T) {
	e := openRouter(t, engine.Config{Dir: t.TempDir(), MemTableSize: 1000, SyncFlush: true})
	// Warm the engine's background machinery before the baseline.
	if err := e.InsertBatch("warm", []int64{1}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	e.WaitFlushes()
	baseline := runtime.NumGoroutine()

	srv := NewServer(e)
	srv.SetIdleTimeout(time.Minute) // exercise the sweeper's shutdown too
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var clients []*Client
	for i := 0; i < 4; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.InsertBatch("leak", []int64{int64(i)}, []float64{1})
			}
			c.Query("leak", 0, 50)
		}(c)
	}
	wg.Wait()
	for _, c := range clients {
		c.Close()
	}
	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+1 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStalledWriterDoesNotWedgePool: a deaf client — it pipelines
// queries with large results and never reads a reply — stalls its
// connection's writer in a socket write. The shared worker pool must
// keep serving other connections throughout (worker reply sends are
// budgeted, never blocking), and the stalled writer must break out on
// the default write-stall deadline even with no configured write
// timeout, letting the server shut down cleanly.
func TestStalledWriterDoesNotWedgePool(t *testing.T) {
	oldStall := defaultWriteStall
	defaultWriteStall = 200 * time.Millisecond
	t.Cleanup(func() { defaultWriteStall = oldStall })

	e := openRouter(t, engine.Config{Dir: t.TempDir(), MemTableSize: 1 << 20, SyncFlush: true})
	// A sensor big enough that a few hundred query replies overwhelm
	// any socket buffering between server and a client that never
	// reads.
	const npts = 8192
	times := make([]int64, npts)
	values := make([]float64, npts)
	for i := range times {
		times[i] = int64(i)
		values[i] = float64(i)
	}
	if err := e.InsertBatch("big", times, values); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(e) // no SetTimeouts: the -rpc-timeout=0 configuration
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	deaf, br, bw := rawDial(t, addr)
	if status, _ := rawCall(t, br, bw, OpHello, helloPayload()); status != StatusOK {
		t.Fatal("handshake refused")
	}
	qpayload := appendString(nil, "big")
	qpayload = binary.AppendVarint(qpayload, 0)
	qpayload = binary.AppendVarint(qpayload, npts)
	for i := 0; i < 256; i++ {
		if err := writeTaggedFrame(bw, OpQuery, uint32(i), qpayload); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	// ...and never read a single reply.

	// A healthy client on the same server must get service while the
	// deaf connection's writer is stalled.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	healthy := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if err := c.InsertBatch("s", []int64{int64(i)}, []float64{1}); err != nil {
				healthy <- err
				return
			}
			if _, err := c.Query("big", 0, 10); err != nil {
				healthy <- err
				return
			}
		}
		healthy <- nil
	}()
	select {
	case err := <-healthy:
		if err != nil {
			t.Fatalf("healthy client starved: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shared worker pool wedged behind a deaf pipelined client")
	}

	// The write-stall deadline breaks the stalled writer, which hangs
	// up on the deaf peer; shutdown must then complete promptly.
	deaf.Close()
	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestSharedQueueAcrossServers: two servers sharing one ingestq see a
// single overload domain — counters accumulate across both.
func TestSharedQueueAcrossServers(t *testing.T) {
	q := ingestq.New(64, 2)
	defer q.Close()
	var addrs []string
	for i := 0; i < 2; i++ {
		e := openRouter(t, engine.Config{Dir: t.TempDir(), MemTableSize: 1000, SyncFlush: true})
		srv := NewServer(e)
		srv.SetIngestQueue(q)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, addr)
	}
	for _, addr := range addrs {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InsertBatch("s", []int64{1}, []float64{1}); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	if got := q.Stats().Enqueued; got < 2 {
		t.Fatalf("shared queue saw %d ops across two servers, want >= 2", got)
	}
}

// oversizeBackend answers Query("big") with more points than one frame
// can carry, and parks Query("slow") until release so a second tag is
// in flight on the same connection meanwhile.
type oversizeBackend struct {
	blockingBackend
	big       []engine.TV
	bigCalls  atomic.Int64
	slowCalls atomic.Int64
}

func (b *oversizeBackend) Query(sensor string, _, _ int64) ([]engine.TV, error) {
	switch sensor {
	case "big":
		b.bigCalls.Add(1)
		return b.big, nil
	case "slow":
		b.slowCalls.Add(1)
		b.once.Do(func() { close(b.started) })
		<-b.release
		return []engine.TV{{T: 1, V: 2}}, nil
	}
	return nil, nil
}

// TestOversizedReplyFailsOneTag: a result that cannot fit MaxFrame is
// answered as a StatusError on its own tag. The connection survives —
// a second tag in flight on it completes — and the client, seeing
// ErrRemote rather than a broken socket, does not redial and
// re-execute the oversized query.
func TestOversizedReplyFailsOneTag(t *testing.T) {
	// Times alternating MaxInt64 and 0 make every TS2Diff delta a
	// 10-byte varint: 18 bytes a point with the 8-byte value.
	b := &oversizeBackend{
		blockingBackend: blockingBackend{started: make(chan struct{}), release: make(chan struct{})},
		big:             make([]engine.TV, MaxFrame/18+1),
	}
	for i := 0; i < len(b.big); i += 2 {
		b.big[i].T = math.MaxInt64
	}
	srv := NewServer(b)
	q := ingestq.New(64, 8) // spare workers: a regression re-executes queries, and must fail below, not starve
	t.Cleanup(q.Close)
	srv.SetIngestQueue(q)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	release := sync.OnceFunc(func() { close(b.release) })
	defer release() // before srv.Close, which waits for the parked slow query
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slow := make(chan error, 1)
	go func() {
		pts, err := c.Query("slow", 0, 10)
		if err == nil && len(pts) != 1 {
			err = fmt.Errorf("slow query returned %d points, want 1", len(pts))
		}
		slow <- err
	}()
	<-b.started // the slow tag is executing on the shared connection

	_, err = c.Query("big", 0, 10)
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "exceeds MaxFrame") {
		t.Fatalf("oversized query error = %v, want ErrRemote naming MaxFrame", err)
	}
	if n := b.bigCalls.Load(); n != 1 {
		t.Fatalf("oversized query executed %d times, want exactly 1", n)
	}

	release()
	if err := <-slow; err != nil {
		t.Fatalf("tag in flight beside the oversized reply failed: %v", err)
	}
	if n := b.slowCalls.Load(); n != 1 {
		t.Fatalf("slow query executed %d times: its connection was dropped and redialed", n)
	}
}
