package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/rpc"
)

// outcome is everything one workload run measured, before it is turned
// into metrics.
type outcome struct {
	sp     spec
	setups []float64 // seconds, one per set-up
	wall   time.Duration

	// The measured phase alone (set-up and the epilogue also record ops).
	phaseOps, phaseTraced, phaseUntraced int64
	phaseWritePoints, phaseReadPoints    int64
	before, after                        snapshot
	depthMax                             int // deepest the dispatch queue was seen

	diskBytes int64
	devBytes  int64 // bytes written through the filesystem seam since the store was created
	live      int64 // distinct timestamps the store holds
	written   int64 // points acknowledged, rewrites included
	reopen    time.Duration
	recovered int64              // WAL batches replayed by the reopen
	extra     map[string]float64 // per-layer metrics only this workload can measure
	replay    *series            // whose arrivals the layer replay uses
}

// readPoints is the points the recorder's read ops returned or covered.
func readPoints(r *recorder) int64 {
	var n int64
	for c := range r.classes {
		if c != classWrite {
			n += r.classes[c].points
		}
	}
	return n
}

// runWorkload runs one workload from set-up to epilogue.
func runWorkload(h *harness, sp spec) (*outcome, error) {
	out := &outcome{sp: sp, extra: map[string]float64{}}
	var w workload
	cleanup := func() {
		if w != nil {
			w.close()
		}
		if h.srv != nil {
			discard(h.srv)
			h.srv = nil
		}
	}
	defer cleanup()

	// Set-up, several times over: its median is setup_s. Only the last
	// store is kept and measured.
	// What a set-up itself measures (read_disk times its load as
	// writes) is pooled over the set-ups.
	var earlier recorder
	for i := 0; i < setupRepeats; i++ {
		cleanup()
		earlier.merge(&h.rec)
		h.rec, h.checks = recorder{}, nil
		w = sp.new()
		t0 := time.Now()
		if err := w.setup(h); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}
	h.rec.merge(&earlier)

	// Measured phase. Collect set-up's garbage first so the phase does
	// not pay for it.
	runtime.GC()
	pre := h.rec
	stopDepth := h.watchQueueDepth(&out.depthMax)
	out.before = takeSnapshot(h.srv)
	out.wall = w.run(h)
	if err := h.srv.settle(); err != nil {
		return nil, fmt.Errorf("background flush: %w", err)
	}
	out.after = takeSnapshot(h.srv)
	stopDepth()
	out.phaseOps = h.rec.attempted - pre.attempted
	out.phaseTraced, out.phaseUntraced = h.rec.traced-pre.traced, h.rec.untraced-pre.untraced
	out.phaseWritePoints = h.rec.classes[classWrite].points - pre.classes[classWrite].points
	out.phaseReadPoints = readPoints(&h.rec) - readPoints(&pre)
	if h.writeWall == 0 {
		h.writeWall = out.wall
	}

	// Epilogue, untimed except where a class says otherwise: space,
	// restart, and the model comparison.
	all := w.allSeries()
	out.replay = all[0]
	for _, s := range all {
		out.live += s.acked
		out.written += s.acked
		for _, rw := range s.rewrites {
			out.written += rw.n
		}
	}
	// Space and write amplification are taken with everything flushed:
	// otherwise they depend on where in a memtable's life the phase
	// happened to end (a point costs ~9 B in the WAL, ~3.5 B in a file).
	h.srv.router.Flush()
	if err := h.srv.settle(); err != nil {
		return nil, fmt.Errorf("final flush: %w", err)
	}
	var err error
	if out.diskBytes, err = h.srv.diskBytes(); err != nil {
		return nil, err
	}
	out.devBytes = h.srv.dev.totalBytes()
	if p, ok := w.(interface{ afterPhase(*harness, *outcome) }); ok {
		p.afterPhase(h, out)
	}
	w.close()
	if sp.sweepBeforeReopen {
		// Swept again after the restart below: what was acknowledged
		// must be there now and must still be there then.
		if err := h.verify(all, &recorder{}, false); err != nil {
			return nil, err
		}
	}
	if h.srv, out.reopen, err = h.srv.reopen(); err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	out.recovered = h.srv.router.Stats().RecoveredWALBatches
	if err := h.verify(all, &h.rec, !sp.pointsInPhase); err != nil {
		return nil, err
	}
	h.runChecks()
	return out, nil
}

// verify sweeps every series through a fresh RPC connection and, when
// probes is set, follows with the point lookups. Mismatches always
// count against the run; latencies go to rec.
func (h *harness) verify(all []*series, rec *recorder, probes bool) error {
	c, err := rpc.Dial(h.srv.rpcAddr)
	if err != nil {
		return fmt.Errorf("dial for sweep: %w", err)
	}
	defer c.Close()
	h.sweep(c, all, rec)
	if probes {
		h.pointProbes(c, all, h.sz.pointProbes, rand.New(rand.NewSource(h.seed)), rec)
	}
	if rec != &h.rec {
		h.rec.attempted += rec.attempted
		h.rec.failed += rec.failed
	}
	return nil
}

// watchQueueDepth samples the dispatch queue's depth every few
// milliseconds of a traced run until the returned function is called.
// The queue only exposes its depth at an instant, so the maximum has
// to be watched.
func (h *harness) watchQueueDepth(maxDepth *int) (stop func()) {
	if h.tr == nil {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	queue := h.srv.queue
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				*maxDepth = max(*maxDepth, queue.Stats().Depth)
			}
		}
	}()
	return func() { close(quit); <-done }
}

// endToEnd computes the end-to-end metrics of a run.
func endToEnd(h *harness, out *outcome) metricSet {
	m := newMetricSet(endToEndDecl)
	write, point := h.rec.classes[classWrite], h.rec.classes[classPoint]
	qry := h.rec.classes[out.sp.queryClass]
	m.set("setup_s", median(out.setups))
	m.set("ops_per_s", float64(out.phaseOps)/out.wall.Seconds())
	m.set("ingest_points_per_s", float64(write.points)/h.writeWall.Seconds())
	m.setLatency("write_p50_ms", write, 50)
	m.setLatency("query_p50_ms", qry, 50)
	m.set("query_points_per_s", qry.pointsPerSecond())
	m.setLatency("point_p50_ms", point, 50)
	m.set("disk_bytes_per_point", ratio(float64(out.diskBytes), float64(out.live)))
	m.set("write_amp", ratio(float64(out.devBytes), 16*float64(out.written)))
	return m
}

// perLayer computes the per-layer metrics of a traced run: counter
// differences around the phase, span sums, and the layer replay.
func perLayer(h *harness, out *outcome, replayDir string) (metricSet, error) {
	m := newMetricSet(perLayerDecl)
	rec := &h.rec
	statsMetrics(m, out.before, out.after)
	for name, v := range out.extra {
		m.set(name, v)
	}

	// client: what the harness saw that is not an end-to-end metric.
	m.set("client.ops", float64(out.phaseOps))
	m.set("client.failed_ops", float64(rec.failed))
	for _, c := range []int{classAggStats, classFanout, classHistoric, classSweep} {
		m.setLatency("client."+classNames[c]+"_p50_ms", rec.classes[c], 50)
	}
	m.setLatency("client.write_p99_ms", rec.classes[classWrite], 99)
	m.setLatency("client.query_p95_ms", rec.classes[out.sp.queryClass], 95)
	m.setLatency("client.query_p99_ms", rec.classes[out.sp.queryClass], 99)
	m.setLatency("client.point_p99_ms", rec.classes[classPoint], 99)
	m.setLatency("client.fanout_p99_ms", rec.classes[classFanout], 99)
	m.set("rpc.overloaded", float64(rec.refused))
	m.set("ingestq.depth_max", float64(out.depthMax))
	m.set("engine.reopen_s", out.reopen.Seconds())
	m.set("engine.recovered_wal_batches", float64(out.recovered))
	m.set("engine.read_amp", ratio(m.get("engine.bytes_read"), 16*float64(out.phaseReadPoints)))

	a, b := out.after, out.before
	moved := float64(out.phaseWritePoints + out.phaseReadPoints)
	m.set("process.allocs_per_point", ratio(float64(a.mem.Mallocs-b.mem.Mallocs), moved))
	m.set("process.alloc_bytes_per_point", ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), moved))
	m.set("process.cpu_ns_per_point", ratio(float64((a.cpu-b.cpu).Nanoseconds()), moved))

	spanMetrics(m, h, out)

	if err := os.MkdirAll(replayDir, 0o755); err != nil {
		return m, err
	}
	if err := replayLayers(m, out.replay, h.sz, replayDir); err != nil {
		return m, err
	}
	// Where an insert's time goes: what the backend span holds beyond
	// the replayed WAL append and memtable write and the measured wait
	// for the engine lock. (The disorder sketch is off in the profile.)
	lockNs := ratio(m.get("engine.lock_wait_avg_us")*1e3*m.get("engine.lock_waits"), float64(out.phaseWritePoints))
	m.set("engine.insert_lock_wait_ns_per_point", lockNs)
	if insert := m.get("engine.insert_ns_per_point"); insert > 0 {
		m.set("engine.insert_unexplained_ns_per_point",
			insert-m.get("wal.append_ns_per_point")-m.get("memtable.write_ns_per_point")-lockNs)
	}
	return m, nil
}

// spanMetrics derives the per-layer times from the trace.
func spanMetrics(m metricSet, h *harness, out *outcome) {
	h.tr.mu.Lock()
	spans := h.tr.spans
	h.tr.mu.Unlock()
	sum := summarize(spans)
	m.set("trace.spans", float64(len(spans)))
	m.set("trace.overhead_ratio", ratio(
		ratio(float64(out.phaseTraced), h.tracedTime.Seconds()),
		ratio(float64(out.phaseUntraced), h.untracedTime.Seconds())))

	// Self time per op, by the layer's spans.
	perOp := func(layer string) float64 {
		var self float64
		var count int64
		for name, n := range sum.count {
			if layerOf(name) == layer {
				self += sum.self[name]
				count += n
			}
		}
		return ratio(self, float64(count)) * 1e6
	}
	m.set("client.self_us_per_op", perOp("client"))
	m.set("rpc.self_us_per_op", perOp("rpc"))
	m.set("httpgw.self_us_per_req", perOp("httpgw"))
	if sum.count["httpgw.write"] > 0 {
		m.set("httpgw.rejected_429", float64(h.rec.refused))
	}

	// Backend time per point. The interposer sees only windows come
	// back from an aggregation, so the points an op moved or covered
	// are taken from its client span.
	clientPoints := map[uint64]int64{}
	for _, s := range spans {
		if layerOf(s.Name) == "client" {
			clientPoints[s.Op] = s.Points
		}
	}
	// An HTTP body turns into one insert per sensor: count its points
	// once, not once per insert.
	type nameOp struct {
		name string
		op   uint64
	}
	counted := map[nameOp]bool{}
	points := map[string]int64{}
	for _, s := range spans {
		if k := (nameOp{s.Name, s.Op}); layerOf(s.Name) == "engine" && !counted[k] {
			counted[k] = true
			points[s.Name] += clientPoints[s.Op]
		}
	}
	for _, name := range []string{"engine.insert", "engine.query", "engine.agg"} {
		m.set(name+"_ns_per_point", ratio(sum.total[name], float64(points[name]))*1e9)
	}
	m.set("shard.fanout_us_per_series", ratio(sum.total["tsql.run"]*1e6,
		float64(out.after.eng.FanoutSeries-out.before.eng.FanoutSeries)*ratio(h.tracedTime.Seconds(), (h.tracedTime+h.untracedTime).Seconds())))

	// How much of the backend's query time was sorting: the share a
	// sort-routing change can move. The sort counters cover the whole
	// phase and flush drains too; spans cover the traced half of it.
	querySortSec := (m.get("engine.flat_sort_ms") + m.get("engine.iface_sort_ms") -
		m.get("engine.flush_sort_ms_avg")*m.get("engine.flushes")) / 1e3
	querySec := sum.total["engine.query"] * ratio((h.tracedTime+h.untracedTime).Seconds(), h.tracedTime.Seconds())
	m.set("engine.sort_share_query", ratio(max(querySortSec, 0), querySec))
}
