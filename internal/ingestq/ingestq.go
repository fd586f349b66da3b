// Package ingestq provides the bounded dispatch queue and shared
// worker pool that every byte entering the system funnels through.
// The rpc server's pipelined connections and the HTTP line-protocol
// gateway submit work to one Queue, so both protocols see a single
// overload policy: when the queue is full, Submit fails immediately
// with ErrQueueFull instead of blocking the caller or growing an
// unbounded backlog, and RetryAfter offers the peer a hint — derived
// from the measured service rate — for when capacity is likely back.
//
// The queue is deliberately tiny: a buffered channel of closures and
// N worker goroutines. What it buys over "spawn a goroutine per
// request" is exactly the two properties a front end under overload
// needs — a hard bound on queued memory and a hard bound on
// concurrently executing work — so saturation degrades into fast,
// explicit rejections rather than OOM or collapse.
package ingestq

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// ErrQueueFull is returned by TrySubmit when the queue is at
// capacity. The rpc server translates it into the wire-level
// overloaded status; the HTTP gateway into 429 Too Many Requests.
var ErrQueueFull = errors.New("ingestq: queue full")

// ErrClosed is returned by TrySubmit after Close.
var ErrClosed = errors.New("ingestq: closed")

// Defaults used when New is given non-positive sizes.
const (
	DefaultCapacity = 1024
)

// retryAfter clamping bounds: hints below the floor just make clients
// busy-spin; hints above the ceiling turn a transient burst into an
// outage from the client's point of view.
const (
	minRetryAfter = 5 * time.Millisecond
	maxRetryAfter = 2 * time.Second
	// defaultTaskNanos seeds the hint before any task has completed.
	defaultTaskNanos = int64(2 * time.Millisecond)
)

// Queue is a bounded task queue drained by a fixed worker pool. All
// methods are safe for concurrent use. Close must only be called once
// no submitter can race it (in practice: after the rpc server and
// gateway sharing the queue have shut down).
type Queue struct {
	tasks   chan func()
	workers int
	wg      sync.WaitGroup

	closeOnce sync.Once
	closed    atomic.Bool
	done      chan struct{}

	enqueued  atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	busyNanos atomic.Int64
}

// Stats is a point-in-time snapshot of the queue's counters.
type Stats struct {
	Capacity int   // queue slots
	Depth    int   // tasks waiting (not yet picked up by a worker)
	Workers  int   // worker pool size
	Enqueued int64 // tasks accepted since New
	Rejected int64 // TrySubmit calls refused with ErrQueueFull
}

// Overlay copies the queue counters onto st, the engine-shaped stats
// snapshot both front ends (rpc OpStats, HTTP /stats) serve.
func (s Stats) Overlay(st *engine.Stats) {
	st.IngestQueueCap = s.Capacity
	st.IngestQueueDepth = s.Depth
	st.IngestWorkers = s.Workers
	st.IngestEnqueued = s.Enqueued
	st.IngestRejected = s.Rejected
}

// New builds a queue of the given capacity drained by the given number
// of workers. Non-positive capacity defaults to DefaultCapacity;
// non-positive workers defaults to GOMAXPROCS.
func New(capacity, workers int) *Queue {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	q := &Queue{
		tasks:   make(chan func(), capacity),
		workers: workers,
		done:    make(chan struct{}),
	}
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

func (q *Queue) worker() {
	defer q.wg.Done()
	for t := range q.tasks {
		if t == nil {
			return // Close sentinel
		}
		start := time.Now()
		t()
		q.busyNanos.Add(int64(time.Since(start)))
		q.completed.Add(1)
	}
}

// TrySubmit enqueues t for execution by the worker pool, never
// blocking: a full queue fails with ErrQueueFull immediately. The
// task runs exactly once unless the queue is closed first.
func (q *Queue) TrySubmit(t func()) error {
	if q.closed.Load() {
		return ErrClosed
	}
	select {
	case q.tasks <- t:
		q.enqueued.Add(1)
		return nil
	default:
		q.rejected.Add(1)
		return ErrQueueFull
	}
}

// RetryAfter estimates how long an overloaded caller should wait
// before retrying: the time the pool needs to drain the current
// backlog at the measured mean task duration, clamped to a sane
// range. It is a hint, not a guarantee.
func (q *Queue) RetryAfter() time.Duration {
	avg := defaultTaskNanos
	if n := q.completed.Load(); n > 0 {
		avg = q.busyNanos.Load() / n
		if avg <= 0 {
			avg = 1
		}
	}
	backlog := int64(len(q.tasks))/int64(q.workers) + 1
	d := time.Duration(avg * backlog)
	if d < minRetryAfter {
		d = minRetryAfter
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// Stats snapshots the queue counters.
func (q *Queue) Stats() Stats {
	return Stats{
		Capacity: cap(q.tasks),
		Depth:    len(q.tasks),
		Workers:  q.workers,
		Enqueued: q.enqueued.Load(),
		Rejected: q.rejected.Load(),
	}
}

// Done returns a channel that is closed once Close has finished:
// workers are stopped and the straggler drain has run. Callers that
// block on a task-completion signal should select on it too, so a
// submit racing Close (see below) cannot strand them forever.
func (q *Queue) Done() <-chan struct{} { return q.done }

// Close stops the workers after the backlog ahead of the close drains,
// and waits for them. TrySubmit fails with ErrClosed afterwards.
// Tasks accepted by a TrySubmit racing Close — past the closed check
// before the sentinels landed — are run inline by Close itself, so
// accepted work is executed, not silently stranded. Owners should
// still stop all submitters (servers, gateways) before closing the
// queue they share: a submit that loses the race entirely fails with
// ErrClosed, and submitters must be prepared for that.
func (q *Queue) Close() {
	q.closeOnce.Do(func() {
		q.closed.Store(true)
		for i := 0; i < q.workers; i++ {
			q.tasks <- nil
		}
		q.wg.Wait()
		for {
			select {
			case t := <-q.tasks:
				if t != nil {
					t()
					q.completed.Add(1)
				}
				continue
			default:
			}
			break
		}
		close(q.done)
	})
}
