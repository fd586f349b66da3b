package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/encoding"
	"repro/internal/engine"
	"repro/internal/query"
)

// Retry policy for idempotent calls: attempts after the first each
// redial the server, with exponential backoff between them. Overload
// rejections retry on the same (healthy) connection after the
// server's retry-after hint plus jitter.
const (
	retryAttempts    = 4
	retryBaseBackoff = 25 * time.Millisecond
)

var errClientClosed = errors.New("rpc: client closed")

// Client is a connection to a Server. It satisfies bench.Target so
// benchmark workloads can run client-server. The connection is
// pipelined: any number of goroutines may issue calls concurrently,
// each request carries a client-chosen tag, and a demultiplexer routes
// tagged replies back to their callers — so N requests overlap on one
// TCP connection instead of serializing on a lock.
//
// Idempotent calls (Query, Latest, Stats, Aggregate, Flush, Settle)
// transparently redial and retry with exponential backoff when the
// transport fails — e.g. across a server restart or a dropped
// connection. InsertBatch never retries a transport failure: a write
// whose response was lost may have been applied, and re-sending it is
// the caller's call. An overload rejection is different — the server
// refused the request without executing it — so every call, writes
// included, may retry after the server's hint.
type Client struct {
	addr string

	mu     sync.Mutex // guards cc, closed; held across redial (single-flight)
	cc     *clientConn
	closed bool
}

// callResult is one demuxed reply (or the connection's fatal error).
type callResult struct {
	status  byte
	payload []byte
	err     error
}

func (r callResult) decode() ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	switch r.status {
	case StatusOK:
		return r.payload, nil
	case StatusOverloaded:
		return nil, decodeOverloadPayload(r.payload)
	default:
		return nil, fmt.Errorf("%w: %s", ErrRemote, r.payload)
	}
}

// clientConn is one live connection. A demux goroutine owns the read
// side and a coalescing writer goroutine owns the write side; requests
// register a tag in pend and wait on their channel.
type clientConn struct {
	conn net.Conn
	br   *bufio.Reader

	pendMu  sync.Mutex
	pend    map[uint32]chan callResult
	nextTag uint32
	errv    error // first fatal error; set once under pendMu

	failed   atomic.Bool
	failOnce sync.Once
	stop     chan struct{} // closed by fail(); writer exit signal
	send     chan []byte   // encoded frames for the writer; never closed
}

// Dial connects to a server and performs the protocol handshake. A
// peer that is not a tsdb server, or one announcing any version other
// than ProtocolVersion, fails here with a descriptive error instead of
// misparsing frames later.
func Dial(addr string) (*Client, error) {
	c := &Client{addr: addr}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.redialLocked(nil); err != nil {
		return nil, err
	}
	return c, nil
}

// redialLocked replaces the current connection, unless a concurrent
// caller already did: callers pass the conn they saw fail, and if
// c.cc has moved past it the fresh conn is reused instead of dialing
// again. c.mu is held across the dial, so exactly one redial runs at
// a time and a losing racer can never leak a second socket.
func (c *Client) redialLocked(failed *clientConn) (*clientConn, error) {
	if c.closed {
		return nil, errClientClosed
	}
	if c.cc != nil && c.cc != failed && !c.cc.failed.Load() {
		return c.cc, nil // single-flight: someone else already redialed
	}
	if c.cc != nil {
		c.cc.fail(errors.New("rpc: connection replaced"))
		c.cc = nil
	}
	cc, err := dialConn(c.addr)
	if err != nil {
		return nil, err
	}
	c.cc = cc
	return cc, nil
}

// acquire returns the live connection, redialing a broken one.
func (c *Client) acquire() (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	if c.cc != nil && !c.cc.failed.Load() {
		return c.cc, nil
	}
	return c.redialLocked(c.cc)
}

// current returns the existing connection without ever redialing —
// the write path uses it so a transport failure surfaces instead of
// being papered over by a silent reconnect.
func (c *Client) current() (*clientConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	if c.cc == nil {
		return nil, errors.New("rpc: connection closed")
	}
	return c.cc, nil
}

// handshake runs the client half of the untagged hello exchange.
func handshake(conn net.Conn, br *bufio.Reader) error {
	if err := writeFrame(conn, OpHello, helloPayload()); err != nil {
		return fmt.Errorf("rpc: handshake failed: %w", err)
	}
	status, resp, err := readFrame(br)
	if err != nil {
		return fmt.Errorf("rpc: handshake failed: %w", err)
	}
	if status != StatusOK {
		// The server refused us: its text names both versions on a
		// mismatch (a version-1 server says "unknown opcode").
		return fmt.Errorf("rpc: handshake refused (client speaks protocol version %d): %w: %s",
			ProtocolVersion, ErrRemote, resp)
	}
	return checkHello(resp, "client", "server")
}

// dialConn opens a TCP connection, handshakes, and starts the demux
// and writer goroutines that run the connection.
func dialConn(addr string) (*clientConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	if err := handshake(conn, br); err != nil {
		conn.Close()
		return nil, err
	}
	cc := &clientConn{
		conn:    conn,
		br:      br,
		pend:    make(map[uint32]chan callResult),
		nextTag: 1,
		stop:    make(chan struct{}),
		send:    make(chan []byte, 64),
	}
	go cc.demux()
	go cc.writer()
	return cc, nil
}

// fail shuts the connection down once: every pending call receives
// err, the writer is stopped, and the socket closed. Safe to call
// from any goroutine, any number of times.
func (cc *clientConn) fail(err error) {
	cc.failOnce.Do(func() {
		cc.pendMu.Lock()
		cc.errv = err
		cc.failed.Store(true)
		pend := cc.pend
		cc.pend = nil
		cc.pendMu.Unlock()
		close(cc.stop)
		cc.conn.Close()
		for _, ch := range pend {
			ch <- callResult{err: err}
		}
	})
}

func (cc *clientConn) failErr() error {
	cc.pendMu.Lock()
	defer cc.pendMu.Unlock()
	if cc.errv != nil {
		return cc.errv
	}
	return errors.New("rpc: connection closed")
}

// demux owns the read side of the connection: it routes each
// reply to the caller that registered its tag. A reply for a tag
// nobody registered means the peer broke framing; the connection is
// unusable then.
func (cc *clientConn) demux() {
	for {
		status, tag, payload, err := readTaggedFrame(cc.br)
		if err != nil {
			cc.fail(err)
			return
		}
		cc.pendMu.Lock()
		ch, ok := cc.pend[tag]
		delete(cc.pend, tag)
		cc.pendMu.Unlock()
		if !ok {
			cc.fail(fmt.Errorf("rpc: reply for unknown tag %d", tag))
			return
		}
		ch <- callResult{status: status, payload: payload}
	}
}

// writer owns the write side of the connection. It coalesces:
// after taking one frame it drains whatever else is already queued
// and issues a single Write, so 8 pipelined requests cost one
// syscall, not eight.
func (cc *clientConn) writer() {
	var buf []byte
	for {
		select {
		case frame := <-cc.send:
			buf = append(buf[:0], frame...)
		drain:
			for {
				select {
				case more := <-cc.send:
					buf = append(buf, more...)
				default:
					break drain
				}
			}
			if _, err := cc.conn.Write(buf); err != nil {
				cc.fail(err)
				return
			}
		case <-cc.stop:
			return
		}
	}
}

// start registers a tag and queues the encoded frame, returning the
// channel the reply will arrive on.
func (cc *clientConn) start(op byte, payload []byte) (chan callResult, error) {
	ch := make(chan callResult, 1)
	cc.pendMu.Lock()
	if cc.pend == nil { // failed: registering now would strand ch forever
		cc.pendMu.Unlock()
		return nil, cc.failErr()
	}
	tag := cc.nextTag
	cc.nextTag++
	cc.pend[tag] = ch
	cc.pendMu.Unlock()
	frame, err := appendTaggedFrame(nil, op, tag, payload)
	if err != nil {
		cc.forget(tag)
		return nil, err
	}
	select {
	case cc.send <- frame:
		return ch, nil
	case <-cc.stop:
		// fail() has already delivered (or is delivering) to ch.
		return nil, cc.failErr()
	}
}

// forget unregisters a tag whose frame never made it to the wire.
func (cc *clientConn) forget(tag uint32) {
	cc.pendMu.Lock()
	delete(cc.pend, tag)
	cc.pendMu.Unlock()
}

// roundTrip performs one request/response exchange.
func (cc *clientConn) roundTrip(op byte, payload []byte) ([]byte, error) {
	ch, err := cc.start(op, payload)
	if err != nil {
		return nil, err
	}
	return (<-ch).decode()
}

func (cc *clientConn) close() {
	cc.fail(errClientClosed)
}

// overloadBackoff turns an overload rejection into a sleep: the
// server's retry-after hint with jitter in [hint/2, hint], so a herd
// of rejected clients doesn't return in lockstep.
func overloadBackoff(err error) time.Duration {
	hint := 50 * time.Millisecond
	var oe *OverloadedError
	if errors.As(err, &oe) && oe.RetryAfter > 0 {
		hint = oe.RetryAfter
	}
	half := int64(hint / 2)
	return time.Duration(half + rand.Int63n(half+1))
}

// call performs one exchange with no transport retry (used for
// non-idempotent operations). Overload rejections — where the server
// explicitly did not execute the request — retry after the server's
// hint; an actual transport failure surfaces immediately and the
// connection is NOT redialed, so a lost write is never silently
// re-sent.
func (c *Client) call(op byte, payload []byte) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		cc, err := c.current()
		if err != nil {
			return nil, err
		}
		resp, err := cc.roundTrip(op, payload)
		if err != nil && errors.Is(err, ErrOverloaded) && attempt+1 < retryAttempts {
			time.Sleep(overloadBackoff(err))
			continue
		}
		return resp, err
	}
}

// callIdempotent is call plus a redial-and-retry loop with
// exponential backoff. Transport failures redial; overload
// rejections back off on the same connection; ErrRemote means the
// server received and answered the request, so it is returned as-is.
func (c *Client) callIdempotent(op byte, payload []byte) ([]byte, error) {
	backoff := retryBaseBackoff
	var lastErr error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		cc, err := c.acquire()
		if err != nil {
			if errors.Is(err, errClientClosed) {
				return nil, err
			}
			lastErr = err
			continue
		}
		resp, err := cc.roundTrip(op, payload)
		if err == nil || errors.Is(err, ErrRemote) {
			return resp, err
		}
		if errors.Is(err, ErrOverloaded) {
			lastErr = err
			time.Sleep(overloadBackoff(err))
			backoff = retryBaseBackoff // connection is healthy; don't escalate
			continue
		}
		lastErr = err
	}
	return nil, fmt.Errorf("rpc: %d attempts failed: %w", retryAttempts, lastErr)
}

// encodeInsert builds the OpInsert payload shared by the sync and
// async insert paths.
func encodeInsert(sensor string, times []int64, values []float64) ([]byte, error) {
	if len(times) != len(values) {
		return nil, fmt.Errorf("rpc: batch shape mismatch")
	}
	return encoding.AppendBatch(nil, sensor, times, values), nil
}

// InsertBatch implements bench.Target.
func (c *Client) InsertBatch(sensor string, times []int64, values []float64) error {
	payload, err := encodeInsert(sensor, times, values)
	if err != nil {
		return err
	}
	_, err = c.call(OpInsert, payload)
	return err
}

// PendingInsert is an in-flight InsertBatchAsync. Wait blocks until
// the reply arrives and returns the call's error; it must be called
// exactly once, from one goroutine.
type PendingInsert struct {
	ch  chan callResult
	err error // resolved immediately (encode/enqueue failure)
}

// Wait blocks for the server's reply. An overload rejection comes
// back as an *OverloadedError (errors.Is ErrOverloaded) without any
// internal retry, so callers pipelining at depth can count rejects
// and pace themselves.
func (p *PendingInsert) Wait() error {
	if p.ch == nil {
		return p.err
	}
	res := <-p.ch
	p.ch = nil
	_, p.err = res.decode()
	return p.err
}

// InsertBatchAsync issues an insert without waiting for the reply,
// returning a PendingInsert to collect it later. Up to the server's
// in-flight budget of inserts can overlap on one connection.
func (c *Client) InsertBatchAsync(sensor string, times []int64, values []float64) *PendingInsert {
	payload, err := encodeInsert(sensor, times, values)
	if err != nil {
		return &PendingInsert{err: err}
	}
	cc, err := c.current()
	if err != nil {
		return &PendingInsert{err: err}
	}
	ch, err := cc.start(OpInsert, payload)
	if err != nil {
		return &PendingInsert{err: err}
	}
	return &PendingInsert{ch: ch}
}

// query fetches the OpQuery reply: one batch record of the sensor's
// points in [minT, maxT].
func (c *Client) query(sensor string, minT, maxT int64) ([]byte, error) {
	payload := appendString(nil, sensor)
	payload = binary.AppendVarint(payload, minT)
	payload = binary.AppendVarint(payload, maxT)
	return c.callIdempotent(OpQuery, payload)
}

// Query returns the records in [minT, maxT] for sensor.
func (c *Client) Query(sensor string, minT, maxT int64) ([]engine.TV, error) {
	resp, err := c.query(sensor, minT, maxT)
	if err != nil {
		return nil, err
	}
	_, times, values, err := encoding.DecodeBatch(resp)
	if err != nil {
		return nil, err
	}
	out := make([]engine.TV, len(times))
	for i := range out {
		out[i] = engine.TV{T: times[i], V: values[i]}
	}
	return out, nil
}

// QueryCount implements bench.Target. It reads the point count off the
// reply's TS2Diff header without decoding the points.
func (c *Client) QueryCount(sensor string, minT, maxT int64) (int, error) {
	resp, err := c.query(sensor, minT, maxT)
	if err != nil {
		return 0, err
	}
	p := &payloadReader{b: resp}
	p.str()
	n := p.uvarint()
	return int(n), p.err
}

// Latest implements bench.Target.
func (c *Client) Latest(sensor string) (int64, bool, error) {
	resp, err := c.callIdempotent(OpLatest, appendString(nil, sensor))
	if err != nil {
		return 0, false, err
	}
	p := &payloadReader{b: resp}
	found, t := p.bytes(1), p.varint()
	if p.err != nil {
		return 0, false, p.err
	}
	return t, found[0] == 1, nil
}

// Stats implements bench.Target: it returns the server's aggregate
// stats, merged across its shards, and the per-shard breakdown (one
// entry per shard, in shard order) from a single OpStats exchange.
func (c *Client) Stats() (engine.Stats, []engine.Stats, error) {
	resp, err := c.callIdempotent(OpStats, nil)
	if err != nil {
		return engine.Stats{}, nil, err
	}
	return decodeStatsReply(resp)
}

// Flush forces a server-side flush.
func (c *Client) Flush() error {
	_, err := c.callIdempotent(OpFlush, nil)
	return err
}

// Settle implements bench.Target: waits for the server's in-flight
// background flushes.
func (c *Client) Settle() error {
	_, err := c.callIdempotent(OpWait, nil)
	return err
}

// Aggregate runs a windowed aggregation server-side:
// SELECT agg(value) GROUP BY window over [startT, endT).
func (c *Client) Aggregate(sensor string, startT, endT, window int64, agg query.Aggregator) ([]query.WindowResult, error) {
	payload := appendString(nil, sensor)
	for _, v := range []int64{startT, endT, window, int64(agg)} {
		payload = binary.AppendVarint(payload, v)
	}
	resp, err := c.callIdempotent(OpAgg, payload)
	if err != nil {
		return nil, err
	}
	p := &payloadReader{b: resp}
	n := p.uvarint()
	if n > uint64(len(resp))/10+1 {
		return nil, fmt.Errorf("rpc: window count %d exceeds frame", n)
	}
	out := make([]query.WindowResult, n)
	for i := range out {
		out[i] = query.WindowResult{Start: p.varint(), Count: int(p.varint()), Value: p.float64()}
	}
	if p.err != nil {
		return nil, p.err
	}
	return out, nil
}

// Close closes the connection. Pending pipelined calls fail; further
// calls fail without redialing.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.cc == nil {
		return nil
	}
	c.cc.close()
	c.cc = nil
	return nil
}
