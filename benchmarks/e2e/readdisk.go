package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/labels"
	"repro/internal/query"
	"repro/internal/rpc"
	"repro/internal/tsql"
)

// readDisk: one closed-loop client reads a store that was loaded,
// flushed and fully compacted in set-up and is several times larger
// than the memtables. Four op classes take turns:
//
//	agg_decode  RPC Aggregate over ~100k points with a 100-point window,
//	            far below the 4096-point block: blocks must be decoded
//	agg_stats   RPC Aggregate over the whole series with one window per
//	            partition: answerable from chunk statistics
//	point       RPC Query of a 16-tick range at a random time
//	fanout      in-process tsql selector aggregation over the fifth of
//	            the label series whose region matches west-.*
//
// The flat sensors are loaded over pipelined RPC, in order; those are
// the workload's only writes and are what its write metrics report.
type readDisk struct {
	conn   *rpc.Client
	flat   []*series
	labels []*series
	west   []*series // the label series the fan-out selects, in registration order

	ops         []diskOp // pre-generated op parameters, cycled
	next        int
	fanoutRange int64 // ticks one fan-out covers: up to 16 windows

	// The model's answers, keyed by what determines them: every flat
	// sensor holds the same values, so a range has one answer.
	aggWant    map[int64]uint64
	statsWant  uint64
	fanoutWant map[int64]uint64
}

// diskOp is the parameters of one cycle of the four classes.
type diskOp struct {
	aggSensor, pointSensor int
	aggStart               int64
	pointTick              int64
	fanoutStart            int64
}

var regions = []string{"west-1", "east-1", "east-2", "east-3", "east-4"}

func (w *readDisk) setup(h *harness) error {
	sz := h.sz
	rng := rand.New(rand.NewSource(h.seed))
	tab := make([]float64, sz.diskTicks)
	for t := range tab {
		tab[t] = val(int64(t))
	}
	offset := float64(h.seed % 64)
	for _, name := range balancedNames("disk.s%03d", sz.diskSensors, shardCount) {
		w.flat = append(w.flat, &series{name: name, tab: tab, offset: offset, stride: 1})
	}
	var err error
	if h.srv, err = h.newStore("read_disk", sz.diskPartition); err != nil {
		return err
	}

	// Flat sensors: in-order pipelined RPC load, timed as writes.
	conns, err := dialAll(h.srv.rpcAddr, writerConns)
	if err != nil {
		return err
	}
	var feeds [writerConns][]*feed
	for i, s := range w.flat {
		feeds[i%writerConns] = append(feeds[i%writerConns], &feed{s: s})
	}
	recs := make([]recorder, writerConns)
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.pipelineWrite(c, feeds[i], len(feeds[i])*int(sz.diskTicks)/rpcBatch, &recs[i], never)
		}()
	}
	wg.Wait()
	h.writeWall += time.Since(t0)
	closeAll(conns)
	for i := range recs {
		h.rec.merge(&recs[i])
	}

	// Label series: sparse (one point every labelStride ticks), so a
	// selector touches many small chunks in every partition.
	times := make([]int64, sz.labelPoints)
	vals := make([]float64, sz.labelPoints)
	for i := 0; i < sz.labelSeries; i++ {
		ls := labels.MustNew(
			labels.Label{Name: "region", Value: regions[i%len(regions)]},
			labels.Label{Name: "host", Value: fmt.Sprintf("h%04d", i)},
		)
		s := &series{name: ls.Canonical(), tab: tab, offset: float64(i % 64), stride: sz.labelStride}
		s.fill(0, times, vals)
		if err := h.srv.router.InsertSeries(ls, times, vals); err != nil {
			return fmt.Errorf("preload series: %w", err)
		}
		s.acked = int64(sz.labelPoints)
		w.labels = append(w.labels, s)
		if i%len(regions) == 0 {
			w.west = append(w.west, s)
		}
	}
	h.srv.router.Flush()
	if err := h.srv.settle(); err != nil {
		return err
	}
	if err := h.srv.router.Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}

	w.ops = make([]diskOp, 1024)
	aggStarts := (sz.diskTicks-sz.aggDecodeTicks)/1000 + 1
	labelSpan := int64(sz.labelPoints) * sz.labelStride
	w.fanoutRange = min(16*sz.fanoutWindow, labelSpan)
	fanoutStarts := (labelSpan-w.fanoutRange)/sz.fanoutWindow + 1
	for i := range w.ops {
		w.ops[i] = diskOp{
			aggSensor:   rng.Intn(len(w.flat)),
			pointSensor: rng.Intn(len(w.flat)),
			aggStart:    rng.Int63n(aggStarts) * 1000,
			pointTick:   rng.Int63n(sz.diskTicks),
			fanoutStart: rng.Int63n(fanoutStarts) * sz.fanoutWindow,
		}
	}
	w.aggWant = map[int64]uint64{}
	w.fanoutWant = map[int64]uint64{}
	w.statsWant = hashWindows(w.flat[0].windows(0, sz.diskTicks, sz.diskPartition, w.flat[0].now()))

	if w.conn, err = rpc.Dial(h.srv.rpcAddr); err != nil {
		return err
	}
	// Warm-up: every class a few times, so file handles are open and
	// the OS has the files cached.
	left := 8
	w.loop(h, &recorder{}, func() bool { left--; return left < 0 })
	h.checks = nil // warm-up answers are not part of the run
	return nil
}

func (w *readDisk) loop(h *harness, rec *recorder, stop func() bool) {
	sz := h.sz
	for ; !stop(); w.next++ {
		p := w.ops[w.next%len(w.ops)]

		// agg_decode
		s := w.flat[p.aggSensor]
		start, end := p.aggStart, p.aggStart+sz.aggDecodeTicks
		if got, ok := w.aggregate(h, rec, classQuery, s, start, end, sz.aggDecodeWin, int(sz.aggDecodeTicks)); ok {
			h.addCheck(fmt.Sprintf("agg_decode %s [%d,%d)", s.name, start, end), func() bool {
				want, cached := w.aggWant[start]
				if !cached {
					want = hashWindows(s.windows(start, end, sz.aggDecodeWin, s.now()))
					w.aggWant[start] = want
				}
				return got == want
			})
		}

		// agg_stats
		if got, ok := w.aggregate(h, rec, classAggStats, s, 0, sz.diskTicks, sz.diskPartition, int(sz.diskTicks)); ok {
			h.addCheck("agg_stats "+s.name, func() bool { return got == w.statsWant })
		}

		// point
		s = w.flat[p.pointSensor]
		lo, hi := p.pointTick, p.pointTick+sz.pointTicks-1
		if pts, err := h.tracedQuery(w.conn, rec, classPoint, s.name, lo, hi); err == nil {
			gotD, sorted := digestPoints(pts)
			h.addCheck(fmt.Sprintf("point %s [%d,%d]", s.name, lo, hi),
				func() bool { return sorted && gotD == s.digest(lo, hi, s.now()) })
		}

		// fanout
		w.fanout(h, rec, p.fanoutStart)
	}
}

// aggregate issues one RPC windowed average and returns the hash of
// its result.
func (w *readDisk) aggregate(h *harness, rec *recorder, class int, s *series, start, end, window int64, covered int) (uint64, bool) {
	suffix := ""
	if class == classAggStats {
		suffix = "_stats" // the interposer cannot tell the two kinds of aggregation apart
	}
	var ws []query.WindowResult
	err := h.syncOp(rec, class, "rpc.agg", suffix, []opKey{{'a', s.name, start, end}}, func() (_ int, err error) {
		ws, err = w.conn.Aggregate(s.name, start, end, window, query.Avg)
		return covered, err
	})
	return hashWindows(ws), err == nil
}

// fanout runs the selector aggregation through tsql on the router, as
// the tsql shell does; label series are not reachable over RPC.
func (w *readDisk) fanout(h *harness, rec *recorder, start int64) {
	sz := h.sz
	end := start + w.fanoutRange
	stmt := fmt.Sprintf(`SELECT avg(value) FROM series{region=~"west-.*"} WHERE time >= %d AND time <= %d GROUP BY WINDOW(%d)`,
		start, end-1, sz.fanoutWindow)
	var res *tsql.Result
	covered := len(w.west) * int((end-start)/sz.labelStride)
	err := h.syncOp(rec, classFanout, "tsql.run", "", nil, func() (_ int, err error) {
		res, err = tsql.Run(h.srv.router, stmt)
		return covered, err
	})
	if err != nil {
		return
	}
	// Columns: window start, value, count.
	rows := make([]query.WindowResult, len(res.Rows))
	for i, row := range res.Rows {
		rows[i].Start, _ = strconv.ParseInt(row[0], 10, 64)
		rows[i].Value, _ = strconv.ParseFloat(row[1], 64)
		rows[i].Count, _ = strconv.Atoi(row[2])
	}
	got := hashWindows(rows)
	h.addCheck(fmt.Sprintf("fanout [%d,%d)", start, end), func() bool {
		want, cached := w.fanoutWant[start]
		if !cached {
			want = hashWindows(mergedAvg(w.west, start, end, sz.fanoutWindow))
			w.fanoutWant[start] = want
		}
		return got == want
	})
}

// afterPhase runs the statistics-only class on its own, to show from
// the engine's counter that it decodes no block.
func (w *readDisk) afterPhase(h *harness, out *outcome) {
	before := h.srv.router.Stats().BlocksDecoded
	rec := &recorder{}
	for i := 0; i < 20; i++ {
		s := w.flat[i%len(w.flat)]
		w.aggregate(h, rec, classAggStats, s, 0, h.sz.diskTicks, h.sz.diskPartition, int(h.sz.diskTicks))
	}
	out.extra["engine.blocks_decoded_agg_stats"] = float64(h.srv.router.Stats().BlocksDecoded - before)
}

func (w *readDisk) run(h *harness) time.Duration {
	return h.measure(func(rec *recorder, stop func() bool) { w.loop(h, rec, stop) })
}

func (w *readDisk) allSeries() []*series {
	return append(append([]*series(nil), w.flat...), w.labels...)
}

func (w *readDisk) close() {
	if w.conn != nil {
		w.conn.Close()
	}
}
