package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/rpc"
)

// Op classes. A workload's ops each belong to one; the end-to-end
// latency metrics are computed per class, whichever phase of the
// workload produced its samples.
const (
	classWrite    = iota // a batch write: submit → ack (open loop: due → ack)
	classQuery           // the workload's range read: request → full result
	classPoint           // a 16-tick point lookup
	classAggStats        // read_disk: aggregation answerable from statistics
	classFanout          // read_disk: selector aggregation over ~200 series
	classHistoric        // http_live_backfill: reader query on the backfilled range
	classSweep           // epilogue: full-range verification scan after the reopen
	numClasses
)

var classNames = [numClasses]string{"write", "query", "point", "agg_stats", "fanout", "historic", "sweep"}

// recorder collects what one client goroutine measured; recorders are
// merged when the phase ends so the hot loop shares nothing.
type recorder struct {
	classes   [numClasses]samples
	attempted int64
	failed    int64 // errors + overload refusals + model mismatches
	refused   int64 // of failed: overload refusals
	traced    int64 // ops that started while tracing was on
	untraced  int64
}

func (r *recorder) merge(o *recorder) {
	for c := range r.classes {
		r.classes[c].merge(o.classes[c])
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.refused += o.refused
	r.traced += o.traced
	r.untraced += o.untraced
}

// done records one finished op. A failed op counts as attempted and
// failed and contributes no latency sample: it is missing every limit.
func (r *recorder) done(class int, lat time.Duration, points int, err error, traced bool) {
	r.attempted++
	if traced {
		r.traced++
	} else {
		r.untraced++
	}
	if err != nil {
		r.failed++
		if errors.Is(err, rpc.ErrOverloaded) {
			r.refused++
		}
		return
	}
	r.classes[class].add(lat, points)
}

// check is one read whose answer is compared with the model after the
// timed section. what names it for the mismatch report.
type check struct {
	what string
	ok   func() bool
}

// harness is the state of one workload run.
type harness struct {
	sz      sizes
	seed    int64
	seconds float64
	tr      *tracer // nil unless the run is traced
	workDir string  // scratch directory for stores, inside the checkout

	srv *server
	rec recorder
	// writeWall is the wall time ingest_points_per_s divides by when a
	// workload's writes happen outside the measured phase; 0 otherwise.
	writeWall time.Duration

	checksMu sync.Mutex
	checks   []check
	mismatch []string

	// Tracing alternates on and off during the measured phase; these
	// are the total time spent in each mode.
	tracedTime, untracedTime time.Duration
}

func (h *harness) addCheck(what string, ok func() bool) {
	h.checksMu.Lock()
	h.checks = append(h.checks, check{what, ok})
	h.checksMu.Unlock()
}

// runChecks evaluates the deferred model comparisons. Each mismatch
// counts as a failed op.
func (h *harness) runChecks() {
	for _, c := range h.checks {
		if !c.ok() {
			h.mismatchf("%s", c.what)
		}
	}
	h.checks = nil
}

// mismatchf records one read that disagreed with the model. It is
// called only from the single-threaded part of a run, after the
// measured phase.
func (h *harness) mismatchf(format string, args ...any) {
	h.rec.failed++
	if len(h.mismatch) < 10 {
		h.mismatch = append(h.mismatch, fmt.Sprintf(format, args...))
	}
}

// newStore opens a server over a fresh directory.
func (h *harness) newStore(name string, partition int64) (*server, error) {
	dir, err := os.MkdirTemp(h.workDir, name+"-")
	if err != nil {
		return nil, err
	}
	return openServer(dir, partition, newDeviceFS(h.tr), h.tr)
}

// discard stops a server and deletes its store.
func discard(s *server) error {
	err := s.stop()
	if e := os.RemoveAll(s.dir); e != nil && err == nil {
		err = e
	}
	return err
}

// opTrace carries the client and front-end spans of one traced op. The
// zero value, used whenever tracing is off, does nothing.
type opTrace struct {
	tr     *tracer
	client span
	front  span
	keys   []opKey
	suffix string // appended to the names of the backend spans the op causes
}

// startOp opens the client span of an op if tracing is on.
func (h *harness) startOp(name string) opTrace {
	if h.tr == nil || !h.tr.on.Load() {
		return opTrace{}
	}
	o := opTrace{tr: h.tr}
	o.client = span{ID: h.tr.id(), Name: name, Start: h.tr.since()}
	o.client.Op = o.client.ID
	return o
}

func (o *opTrace) traced() bool { return o.tr != nil }

// enter opens the front-end span (the rpc or http call) and announces
// the backend calls it will cause, so the interposer behind the front
// end can attach them.
func (o *opTrace) enter(name string, keys ...opKey) {
	if o.tr == nil {
		return
	}
	o.front = span{ID: o.tr.id(), Parent: o.client.ID, Op: o.client.Op, Name: name, Start: o.tr.since()}
	o.keys = keys
	o.tr.expect(link{parent: o.front.ID, op: o.client.Op, suffix: o.suffix}, keys...)
}

// leave closes the front-end span.
func (o *opTrace) leave() {
	if o.tr == nil {
		return
	}
	o.front.End = o.tr.since()
	o.tr.forget(o.keys...)
	o.tr.record(o.front)
}

// finish closes the client span of an op that moved points points.
func (o *opTrace) finish(points int) {
	if o.tr == nil {
		return
	}
	o.client.Points = int64(points)
	o.client.End = o.tr.since()
	o.tr.record(o.client)
}

// measure runs the workload's clients for the measured phase: each
// client function runs on its own goroutine with its own recorder
// until stop() turns true. In a traced run tracing alternates on and
// off every traceSlice, so the same phase yields both throughputs.
func (h *harness) measure(clients ...func(rec *recorder, stop func() bool)) time.Duration {
	length := time.Duration(h.seconds * float64(time.Second))
	start := time.Now()
	deadline := start.Add(length)
	stop := func() bool { return !time.Now().Before(deadline) }

	slicerDone := make(chan struct{})
	if h.tr != nil {
		go func() {
			defer close(slicerDone)
			on := true
			for t := start; t.Before(deadline); t = t.Add(traceSlice) {
				h.tr.on.Store(on)
				d := min(traceSlice, deadline.Sub(t))
				if on {
					h.tracedTime += d
				} else {
					h.untracedTime += d
				}
				time.Sleep(time.Until(t.Add(d)))
				on = !on
			}
			h.tr.on.Store(false)
		}()
	} else {
		close(slicerDone)
	}

	recs := make([]recorder, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c(&recs[i], stop)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	<-slicerDone
	for i := range recs {
		h.rec.merge(&recs[i])
	}
	return elapsed
}

// feed is one series' write cursor.
type feed struct {
	s    *series
	next int64 // arrival index of the next point to send
}

// inflight is one pipelined write awaiting its ack.
type inflight struct {
	p     *rpc.PendingInsert
	start time.Time
	op    opTrace
	f     *feed
	n     int
}

// pipelineWrite is the closed-loop pipelined writer: it keeps up to
// pipelineDepth batches in flight on c, refilling a slot only when its
// ack arrives, dealing batches to feeds round-robin, until stop() or
// limit batches have been sent (limit 0: no limit).
func (h *harness) pipelineWrite(c *rpc.Client, feeds []*feed, limit int, rec *recorder, stop func() bool) {
	times := make([]int64, rpcBatch)
	scratch := make([]float64, rpcBatch)
	window := make([]inflight, 0, pipelineDepth)
	collect := func(in inflight) {
		err := in.p.Wait()
		lat := time.Since(in.start)
		in.op.leave()
		in.op.finish(in.n)
		rec.done(classWrite, lat, in.n, err, in.op.traced())
		// The model takes acknowledged arrivals to be a prefix; a
		// failed batch breaks that and the sweep will report it too.
		in.f.s.acked += int64(in.n)
	}
	for sent := 0; (limit == 0 || sent < limit) && !stop(); sent++ {
		f := feeds[sent%len(feeds)]
		if len(window) == pipelineDepth {
			collect(window[0])
			window = window[:copy(window, window[1:])]
		}
		op := h.startOp("client.write")
		vals := f.s.fill(f.next, times, scratch)
		op.enter("rpc.insert", opKey{'w', f.s.name, times[0], rpcBatch})
		window = append(window, inflight{
			start: time.Now(), p: c.InsertBatchAsync(f.s.name, times, vals), op: op, f: f, n: rpcBatch})
		f.next += rpcBatch
	}
	for _, in := range window {
		collect(in)
	}
}

// dialAll opens n RPC connections.
func dialAll(addr string, n int) ([]*rpc.Client, error) {
	clients := make([]*rpc.Client, n)
	for i := range clients {
		c, err := rpc.Dial(addr)
		if err != nil {
			for _, open := range clients[:i] {
				open.Close()
			}
			return nil, fmt.Errorf("dial: %w", err)
		}
		clients[i] = c
	}
	return clients, nil
}

func closeAll(clients []*rpc.Client) {
	for _, c := range clients {
		c.Close()
	}
}

// syncOp runs call as one synchronous op of class: client and front
// spans when tracing is on, latency and the points it moved into rec.
// keys announce the backend calls it causes; suffix marks their spans.
func (h *harness) syncOp(rec *recorder, class int, front, suffix string, keys []opKey, call func() (points int, err error)) error {
	op := h.startOp("client." + classNames[class])
	op.suffix = suffix
	op.enter(front, keys...)
	t0 := time.Now()
	points, err := call()
	lat := time.Since(t0)
	op.leave()
	op.finish(points)
	rec.done(class, lat, points, err, op.traced())
	return err
}

// tracedQuery is an RPC range query as one op.
func (h *harness) tracedQuery(c *rpc.Client, rec *recorder, class int, sensor string, lo, hi int64) (pts []engine.TV, err error) {
	err = h.syncOp(rec, class, "rpc.query", "", []opKey{{'q', sensor, lo, hi}}, func() (int, error) {
		pts, err = c.Query(sensor, lo, hi)
		return len(pts), err
	})
	return pts, err
}

// sweep reads every series in full through c, sweepTicks per query,
// and compares count, order and digest with the model. It is the
// durability check: every acknowledged write must be readable.
func (h *harness) sweep(c *rpc.Client, all []*series, rec *recorder) {
	for _, s := range all {
		span := h.sz.sweepTicks * s.stride
		end := s.maxTick()*s.stride + 1
		for lo := int64(0); lo < end; lo += span {
			hi := lo + span - 1
			pts, err := h.tracedQuery(c, rec, classSweep, s.name, lo, hi)
			if err != nil {
				continue
			}
			got, sorted := digestPoints(pts)
			if want := s.digest(lo, hi, s.now()); !sorted || got != want {
				h.mismatchf("sweep %s [%d,%d]: got %d points, want %d (sorted=%v)", s.name, lo, hi, got.count, want.count, sorted)
			}
		}
	}
}

// pointProbes issues n point lookups at random ticks of random series
// and checks each against the model.
func (h *harness) pointProbes(c *rpc.Client, all []*series, n int, rng *rand.Rand, rec *recorder) {
	for i := 0; i < n; i++ {
		s := all[rng.Intn(len(all))]
		lo := rng.Int63n(s.maxTick()+1) * s.stride
		hi := lo + h.sz.pointTicks*s.stride - 1
		pts, err := h.tracedQuery(c, rec, classPoint, s.name, lo, hi)
		if err != nil {
			continue
		}
		got, sorted := digestPoints(pts)
		if want := s.digest(lo, hi, s.now()); !sorted || got != want {
			h.mismatchf("point %s [%d,%d]: got %d points, want %d (sorted=%v)", s.name, lo, hi, got.count, want.count, sorted)
		}
	}
}

// maxTick is the largest tick any acknowledged arrival can carry.
func (s *series) maxTick() int64 {
	if s.st == nil || s.acked <= s.inOrder {
		return max(s.acked-1, 0)
	}
	n := int64(s.st.n)
	return s.inOrder + ((s.acked-s.inOrder-1)/n+1)*n - 1
}

// makeWorkDir creates this process's scratch directory under base.
func makeWorkDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}
