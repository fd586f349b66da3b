package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/encoding"
	"repro/internal/engine"
	"repro/internal/ingestq"
	"repro/internal/query"
	"repro/internal/winagg"
)

// Backend is the storage surface the server dispatches onto — the
// shard router, which fans the engine API out over hash-partitioned
// shards. StatsAll returns the merged aggregate and the per-shard
// snapshots from one collection pass, so the OpStats payload is
// internally consistent.
type Backend interface {
	InsertBatch(sensor string, times []int64, values []float64) error
	Query(sensor string, minT, maxT int64) ([]engine.TV, error)
	LatestTime(sensor string) (int64, bool)
	AggregateWindows(sensor string, startT, endT, window int64, op winagg.Op) ([]winagg.Window, error)
	StatsAll() (engine.Stats, []engine.Stats)
	Flush()
	WaitFlushes()
}

// maxConnInFlight bounds how many ops one pipelined connection may
// have outstanding. Past it the server answers StatusOverloaded, so a
// single runaway client cannot monopolize the dispatch queue or force
// unbounded reply buffering.
const maxConnInFlight = 1024

// overloadSlack bounds how many reader-issued StatusOverloaded replies
// one connection may have outstanding (handed to the writer but not
// yet consumed by it). Together with maxConnInFlight it sizes the
// reply channel so sends into it never block: every worker reply holds
// an inFlight unit and every overload reply an overloadSlack unit
// until the writer receives it. A peer that keeps pipelining past its
// budget while not draining replies exhausts the slack and is
// disconnected — the worker pool is shared across connections and the
// HTTP gateway, so one deaf client must not be able to wedge it.
const overloadSlack = 16

// defaultWriteStall caps how long the pipelined writer may sit in one
// socket write when no explicit write timeout is configured. A healthy
// peer drains its receive buffer continuously; a stall this long means
// the peer stopped reading, and the connection is cut so its buffered
// replies drain and its reader is released. A var so tests can shrink
// it.
var defaultWriteStall = time.Minute

// servConn is the per-connection bookkeeping the idle sweep and the
// drain logic read.
type servConn struct {
	conn       net.Conn
	lastActive atomic.Int64 // unix nanos of the last frame in or out
	inFlight   atomic.Int64 // ops accepted but not yet answered
}

func (sc *servConn) touch() { sc.lastActive.Store(time.Now().UnixNano()) }

// Server exposes a backend over TCP. Every connection is multiplexed:
// a per-connection reader goroutine feeds the bounded dispatch queue,
// a shared worker pool executes ops, and a single per-connection
// writer goroutine serializes tagged replies in completion order.
type Server struct {
	eng Backend

	readTimeout  time.Duration
	writeTimeout time.Duration
	idleTimeout  time.Duration

	queue    *ingestq.Queue
	ownQueue bool // Listen made queue, so Close and Shutdown close it

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]*servConn
	wg       sync.WaitGroup
	closed   bool
	draining bool
	stopCh   chan struct{}

	pipelinedConns atomic.Int64
}

// NewServer wraps a backend (the shard router).
func NewServer(eng Backend) *Server {
	return &Server{
		eng:    eng,
		conns:  make(map[net.Conn]*servConn),
		stopCh: make(chan struct{}),
	}
}

// SetTimeouts arms per-frame connection deadlines: read is the longest
// a connection may sit between request frames (an idle or stalled peer
// is dropped after it), write the longest one response frame may take
// to drain into the socket. Zero disables the respective deadline —
// except that a connection's writer always caps a single socket write at defaultWriteStall, because with many replies queued
// behind one stalled write a truly unbounded write would let a peer
// that stops reading pin the connection's buffered replies forever.
// Call before Listen.
func (s *Server) SetTimeouts(read, write time.Duration) {
	s.readTimeout = read
	s.writeTimeout = write
}

// SetIdleTimeout arms the idle-connection sweep: a connection with no
// frame traffic in either direction and no ops in flight for longer
// than d is closed, so dead clients cannot pin reader goroutines
// forever even when no read deadline is set. Zero (the default)
// disables the sweep. Call before Listen.
func (s *Server) SetIdleTimeout(d time.Duration) {
	s.idleTimeout = d
}

// SetIngestQueue makes the server dispatch pipelined ops through q
// instead of a private queue, so several front ends (this server, the
// HTTP gateway) share one backpressure policy. The caller owns q's
// lifetime and must close it only after every sharer has shut down.
// Call before Listen.
func (s *Server) SetIngestQueue(q *ingestq.Queue) {
	s.queue = q
}

// Listen starts accepting on addr (e.g. "127.0.0.1:0") and returns the
// bound address. Serving happens on background goroutines.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = ln
	if s.queue == nil {
		s.queue = ingestq.New(0, 0)
		s.ownQueue = true
	}
	idle := s.idleTimeout
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	if idle > 0 {
		s.wg.Add(1)
		go s.sweepIdle(idle)
	}
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		sc := &servConn{conn: conn}
		sc.touch()
		s.conns[conn] = sc
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(sc)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// sweepIdle periodically closes connections with no traffic and no
// in-flight ops for longer than the idle timeout.
func (s *Server) sweepIdle(idle time.Duration) {
	defer s.wg.Done()
	tick := idle / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case now := <-t.C:
			cutoff := now.Add(-idle).UnixNano()
			s.mu.Lock()
			for _, sc := range s.conns {
				if sc.inFlight.Load() == 0 && sc.lastActive.Load() < cutoff {
					sc.conn.Close() // unblocks the parked reader
				}
			}
			s.mu.Unlock()
		}
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// serveConn owns one connection: it runs the untagged handshake
// exchange, refusing any peer that does not announce ProtocolVersion,
// then hands off to the pipelined loop.
func (s *Server) serveConn(sc *servConn) {
	conn := sc.conn
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)

	if s.readTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.readTimeout))
	}
	op, payload, err := readFrame(br)
	if err != nil {
		return
	}
	sc.touch()
	// A refusal goes out in the untagged response framing every
	// version since 1 can decode, so a stale peer sees why.
	status, resp := StatusOK, helloPayload()
	var herr error
	if op != OpHello {
		herr = fmt.Errorf("rpc: handshake required: server speaks protocol version %d, client sent opcode %d first",
			ProtocolVersion, op)
	} else {
		herr = checkHello(payload, "server", "client")
	}
	if herr != nil {
		status, resp = StatusError, []byte(herr.Error())
	}
	if s.writeTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	}
	if writeFrame(bw, status, resp) != nil || bw.Flush() != nil || herr != nil {
		return // failed handshake: drop the connection
	}
	sc.touch()
	s.pipelinedConns.Add(1)
	s.servePipelined(sc, br, bw)
}

// wireReply is one tagged response waiting for the writer goroutine.
type wireReply struct {
	tag     uint32
	status  byte
	payload []byte
}

// servePipelined is the connection loop. The calling goroutine is the
// reader: it decodes tagged frames and submits each op to the shared
// dispatch queue, answering StatusOverloaded immediately when the
// queue (or this connection's in-flight budget) is full. Workers
// execute ops concurrently and push replies — in completion order, not
// arrival order — to the writer goroutine, which owns the socket's
// write side and flushes whenever its channel goes momentarily empty,
// so back-to-back replies coalesce into few syscalls.
//
// The reply channel is sized for every budget unit that can be
// outstanding at once — maxConnInFlight worker replies plus
// overloadSlack reader-issued overload replies — and the writer
// releases each unit the moment it receives the reply, so sends into
// the channel never block a shared-pool worker: admission control
// (the inFlight budget, the overload slack) runs strictly ahead of
// every send.
func (s *Server) servePipelined(sc *servConn, br *bufio.Reader, bw *bufio.Writer) {
	conn := sc.conn
	replies := make(chan wireReply, maxConnInFlight+overloadSlack)
	var overloadOut atomic.Int64 // overload replies the writer has not yet consumed
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		broken := false
		for rep := range replies {
			// Release the budget unit first: even a broken writer must
			// keep the reply channel's capacity invariant honest.
			if rep.status == StatusOverloaded {
				overloadOut.Add(-1)
			} else {
				sc.inFlight.Add(-1)
			}
			if broken {
				continue // keep draining so workers never block
			}
			// Always bound one socket write: with no configured write
			// timeout a peer that stops reading would otherwise park
			// this goroutine in conn.Write forever, and with it every
			// reply buffered behind the stall.
			stall := s.writeTimeout
			if stall <= 0 {
				stall = defaultWriteStall
			}
			conn.SetWriteDeadline(time.Now().Add(stall))
			if writeTaggedFrame(bw, rep.status, rep.tag, rep.payload) != nil {
				broken = true
				conn.Close() // release the parked reader; the stream is dead
				continue
			}
			if len(replies) == 0 {
				if bw.Flush() != nil {
					broken = true
					conn.Close()
					continue
				}
				sc.touch()
			}
		}
		if !broken {
			bw.Flush()
		}
	}()

	var pending sync.WaitGroup
	for {
		if s.isDraining() {
			break // stop taking requests; in-flight ops still answer
		}
		if s.readTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.readTimeout))
		}
		op, tag, payload, err := readTaggedFrame(br)
		if err != nil {
			break
		}
		sc.touch()
		if sc.inFlight.Load() >= maxConnInFlight {
			if !s.sendOverload(replies, &overloadOut, tag) {
				break // deaf peer: pipelining past its budget, not reading replies
			}
			continue
		}
		sc.inFlight.Add(1)
		pending.Add(1)
		task := func() {
			defer pending.Done()
			resp, derr := s.dispatch(op, payload)
			if derr == nil && len(resp)+taggedOverhead > MaxFrame {
				// Fail this one tag; the writer must never meet a frame
				// it cannot send, or every other tag dies with the conn.
				derr = fmt.Errorf("rpc: reply %d bytes exceeds MaxFrame (%d); narrow the range", len(resp), MaxFrame)
			}
			rep := wireReply{tag: tag, status: StatusOK, payload: resp}
			if derr != nil {
				rep.status, rep.payload = StatusError, []byte(derr.Error())
			}
			// The op's inFlight unit is released by the writer when it
			// consumes rep, so this send always finds channel capacity.
			select {
			case replies <- rep:
			default:
				// Unreachable while the budget accounting is correct;
				// if it ever is not, kill the connection rather than
				// wedge a shared worker. Closing the conn breaks the
				// writer out of any stalled write, after which it
				// drains the channel — so the blocking send completes.
				conn.Close()
				replies <- rep
			}
		}
		if qerr := s.queue.TrySubmit(task); qerr != nil {
			sc.inFlight.Add(-1)
			pending.Done()
			if !s.sendOverload(replies, &overloadOut, tag) {
				break
			}
		}
	}
	// Reader done (peer gone, deadline, drain, or overload slack
	// spent): wait for this connection's in-flight ops, let the writer
	// drain their replies, then release it.
	pending.Wait()
	close(replies)
	<-writerDone
}

// sendOverload queues a StatusOverloaded reply for tag if the
// connection's overload slack allows. False means the slack is spent:
// the peer keeps pipelining while its writer is stalled (it is not
// reading replies), and the connection must be dropped rather than
// risk the reader blocking on the reply channel — and, through the
// shared dispatch pool, stalling every other connection.
func (s *Server) sendOverload(replies chan<- wireReply, overloadOut *atomic.Int64, tag uint32) bool {
	if overloadOut.Add(1) > overloadSlack {
		overloadOut.Add(-1)
		return false
	}
	replies <- wireReply{tag: tag, status: StatusOverloaded,
		payload: encodeOverloadPayload(s.queue.RetryAfter())}
	return true
}

func (s *Server) dispatch(op byte, payload []byte) ([]byte, error) {
	p := &payloadReader{b: payload}
	switch op {
	case OpInsert:
		sensor, times, values, err := encoding.DecodeBatch(payload)
		if err != nil {
			return nil, err
		}
		return nil, s.eng.InsertBatch(sensor, times, values)

	case OpQuery:
		sensor, minT, maxT := p.str(), p.varint(), p.varint()
		if p.err != nil {
			return nil, p.err
		}
		out, err := s.eng.Query(sensor, minT, maxT)
		if err != nil {
			return nil, err
		}
		times, values := make([]int64, len(out)), make([]float64, len(out))
		for i, tv := range out {
			times[i], values[i] = tv.T, tv.V
		}
		return encoding.AppendBatch(nil, sensor, times, values), nil

	case OpLatest:
		sensor := p.str()
		if p.err != nil {
			return nil, p.err
		}
		t, ok := s.eng.LatestTime(sensor)
		resp := []byte{0}
		if ok {
			resp[0] = 1
		}
		return binary.AppendVarint(resp, t), nil

	case OpStats:
		// The front-end counters are server-wide: they go on the
		// aggregate only, like the router's label-index counters.
		agg, per := s.eng.StatsAll()
		if s.queue != nil {
			s.queue.Stats().Overlay(&agg)
		}
		agg.PipelinedConns = s.pipelinedConns.Load()
		return appendStatsReply(nil, agg, per), nil

	case OpFlush:
		s.eng.Flush()
		return nil, nil

	case OpWait:
		s.eng.WaitFlushes()
		return nil, nil

	case OpAgg:
		sensor, startT, endT, window, aggCode := p.str(), p.varint(), p.varint(), p.varint(), p.varint()
		if p.err != nil {
			return nil, p.err
		}
		wins, err := query.WindowQuery(s.eng, sensor, startT, endT, window, query.Aggregator(aggCode))
		if err != nil {
			return nil, err
		}
		resp := binary.AppendUvarint(nil, uint64(len(wins)))
		for _, w := range wins {
			resp = binary.AppendVarint(resp, w.Start)
			resp = binary.AppendVarint(resp, int64(w.Count))
			resp = appendFloat64(resp, w.Value)
		}
		return resp, nil

	default:
		return nil, fmt.Errorf("rpc: unknown opcode %d", op)
	}
}

// Shutdown drains the server gracefully: it stops accepting, lets every
// in-flight op finish (idle connections are released at their next
// read, bounded by the drain deadline), and force-closes whatever
// remains when the deadline passes. The engine is left open (the owner
// closes it — typically right after Shutdown returns, so the final
// flush happens with no requests in flight).
func (s *Server) Shutdown(drain time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	close(s.stopCh)
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	// Unblock readers parked in readTaggedFrame waiting for
	// a request that will never come; ops mid-dispatch are unaffected
	// until their connection next reads.
	deadline := time.Now().Add(drain)
	for conn := range s.conns {
		conn.SetReadDeadline(deadline)
	}
	ownQueue := s.ownQueue
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drain + 100*time.Millisecond):
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
	if ownQueue {
		s.queue.Close()
	}
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// Close stops accepting, closes live connections, and waits for the
// handlers. The engine is left open (the owner closes it).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.stopCh)
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	ownQueue := s.ownQueue
	s.mu.Unlock()
	s.wg.Wait()
	if ownQueue {
		s.queue.Close()
	}
	return ignoreNetClosed(err)
}

func ignoreNetClosed(err error) error {
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}
