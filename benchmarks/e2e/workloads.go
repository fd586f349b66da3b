package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/rpc"
)

// workload is one traffic mix. A fresh value is built for every set-up,
// so set-up can be repeated and timed.
type workload interface {
	// setup generates the inputs from h.seed, opens the store as h.srv,
	// preloads it and warms it up.
	setup(h *harness) error
	// run is the measured phase. It returns its wall time.
	run(h *harness) time.Duration
	// allSeries lists every series the store holds, for the sweep.
	allSeries() []*series
	// close releases the workload's client connections.
	close()
}

// spec describes a workload to the driver of a run. Why each exists
// is recorded in BENCHMARK.json and ../README.md.
type spec struct {
	name string
	new  func() workload
	// queryClass is the op class reported as query_*: the workload's
	// own range read, or the epilogue sweep where it has none.
	queryClass int
	// pointsInPhase is true when the measured phase itself issues the
	// point lookups; otherwise the epilogue does.
	pointsInPhase bool
	// sweepBeforeReopen adds a full verification sweep before the
	// restart to the one every workload runs after it.
	sweepBeforeReopen bool
}

var specs = []spec{
	{
		name:       "ingest_ooo",
		new:        func() workload { return &ingestOOO{} },
		queryClass: classSweep,

		sweepBeforeReopen: true,
	},
	{
		name:       "paper_mixed",
		new:        func() workload { return &paperMixed{} },
		queryClass: classQuery,
	},
	{
		name:          "read_disk",
		new:           func() workload { return &readDisk{} },
		queryClass:    classQuery,
		pointsInPhase: true,
	},
	{
		name:       "http_live_backfill",
		new:        func() workload { return &httpLiveBackfill{} },
		queryClass: classQuery,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// never is the stop function of loops that run to a batch limit.
func never() bool { return false }

// ingestOOO: two pipelined RPC connections write 64 sensors whose
// arrival orders come from four delay regimes.
type ingestOOO struct {
	conns  []*rpc.Client
	series []*series
	feeds  [writerConns][]*feed
}

func (w *ingestOOO) setup(h *harness) error {
	streams := make([]*stream, len(fleets))
	for i, kind := range fleets {
		streams[i] = newStream(kind, h.sz.streamLen, h.seed*int64(len(fleets))+int64(i))
	}
	names := balancedNames("ooo.s%03d", h.sz.oooDevices*h.sz.oooSensorsPerDevice, shardCount)
	for i, name := range names {
		device := i / h.sz.oooSensorsPerDevice
		s := &series{name: name, st: streams[device%len(streams)], stride: 1}
		w.series = append(w.series, s)
		w.feeds[device%writerConns] = append(w.feeds[device%writerConns], &feed{s: s})
	}
	var err error
	if h.srv, err = h.newStore("ingest_ooo", h.sz.oooPartition); err != nil {
		return err
	}
	if w.conns, err = dialAll(h.srv.rpcAddr, writerConns); err != nil {
		return err
	}
	// Warm-up: far enough that every shard has flushed several times
	// and the first L0 merge has run.
	var wg sync.WaitGroup
	for i, c := range w.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.pipelineWrite(c, w.feeds[i], h.sz.oooWarmBatches, &recorder{}, never)
		}()
	}
	wg.Wait()
	return h.srv.settle()
}

func (w *ingestOOO) run(h *harness) time.Duration {
	clients := make([]func(*recorder, func() bool), len(w.conns))
	for i, c := range w.conns {
		clients[i] = func(rec *recorder, stop func() bool) {
			h.pipelineWrite(c, w.feeds[i], 0, rec, stop)
		}
	}
	return h.measure(clients...)
}

func (w *ingestOOO) allSeries() []*series { return w.series }
func (w *ingestOOO) close()               { closeAll(w.conns) }

// paperMixed: two closed-loop RPC clients, each owning half the
// sensors, alternate at random between a batch write and the paper's
// query "time > latest - window" on the data they just wrote.
type paperMixed struct {
	conns   []*rpc.Client
	series  []*series
	clients [writerConns]*mixedClient
}

// mixedClient is one client's share of the workload: its sensors, its
// pre-generated op sequence and its position in both.
type mixedClient struct {
	feeds   []*feed
	latest  []int64 // per feed: largest tick written so far
	isWrite []bool  // the op sequence, cycled
	pick    []int   // per op: which of the client's sensors
	next    int
	times   []int64
	scratch []float64
}

func (w *paperMixed) setup(h *harness) error {
	st := newStream("lognormal-1-4", h.sz.streamLen, h.seed)
	rng := rand.New(rand.NewSource(h.seed))
	for i := range w.clients {
		w.clients[i] = &mixedClient{times: make([]int64, rpcBatch), scratch: make([]float64, rpcBatch)}
	}
	names := balancedNames("mixed.s%03d", h.sz.mixedSensors, shardCount)
	for i, name := range names {
		s := &series{name: name, st: st, stride: 1}
		w.series = append(w.series, s)
		// Deal sensors in runs, so each client's are spread over the shards.
		c := w.clients[i*writerConns/len(names)]
		c.feeds = append(c.feeds, &feed{s: s})
		c.latest = append(c.latest, 0)
	}
	for _, c := range w.clients {
		c.isWrite = make([]bool, 4096)
		c.pick = make([]int, len(c.isWrite))
		for i := range c.isWrite {
			c.isWrite[i] = rng.Intn(2) == 0
			c.pick[i] = rng.Intn(len(c.feeds))
		}
	}
	var err error
	if h.srv, err = h.newStore("paper_mixed", h.sz.mixedPartition); err != nil {
		return err
	}
	if w.conns, err = dialAll(h.srv.rpcAddr, writerConns); err != nil {
		return err
	}
	var wg sync.WaitGroup
	for i, c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			left := h.sz.mixedWarmOps
			c.loop(h, w.conns[i], &recorder{}, func() bool { left--; return left < 0 })
		}()
	}
	wg.Wait()
	return h.srv.settle()
}

// loop runs the client's op sequence until stop.
func (c *mixedClient) loop(h *harness, conn *rpc.Client, rec *recorder, stop func() bool) {
	for ; !stop(); c.next++ {
		i := c.next % len(c.isWrite)
		f := c.feeds[c.pick[i]]
		s := f.s
		if c.isWrite[i] {
			vals := s.fill(f.next, c.times, c.scratch)
			h.syncOp(rec, classWrite, "rpc.insert", "", []opKey{{'w', s.name, c.times[0], rpcBatch}}, func() (int, error) {
				return rpcBatch, conn.InsertBatch(s.name, c.times, vals)
			})
			f.next += rpcBatch
			s.acked += rpcBatch
			for _, t := range c.times {
				c.latest[c.pick[i]] = max(c.latest[c.pick[i]], t)
			}
			continue
		}
		hi := c.latest[c.pick[i]]
		lo := hi - h.sz.mixedWindow
		pts, err := h.tracedQuery(conn, rec, classQuery, s.name, lo, hi)
		// One query in a hundred is checked. The client owns the
		// sensor and waits for every ack, so the model knows exactly
		// what the store held when the query ran.
		if err == nil && c.next%100 == 0 {
			got, sorted := digestPoints(pts)
			st := s.now()
			h.addCheck(fmt.Sprintf("query %s [%d,%d] after %d points: got %d points", s.name, lo, hi, st.acked, got.count),
				func() bool { return sorted && got == s.digest(lo, hi, st) })
		}
	}
}

func (w *paperMixed) run(h *harness) time.Duration {
	clients := make([]func(*recorder, func() bool), len(w.clients))
	for i, c := range w.clients {
		clients[i] = func(rec *recorder, stop func() bool) { c.loop(h, w.conns[i], rec, stop) }
	}
	return h.measure(clients...)
}

func (w *paperMixed) allSeries() []*series { return w.series }
func (w *paperMixed) close()               { closeAll(w.conns) }
