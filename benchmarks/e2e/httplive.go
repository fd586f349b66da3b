package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/internal/rpc"
)

// httpLiveBackfill: the HTTP front door, writes beside reads. One
// writer POSTs line-protocol bodies on a fixed schedule (open loop);
// nine in ten carry the live tail of every sensor, one in ten rewrites
// a stretch of history two to six partitions behind it. One closed-loop
// reader issues GET /query window averages, three in four on the most
// recent finished range and one in four on the range the backfill
// rewrites. (Not half and half: with two latency modes of equal weight
// the median would sit on the gap between them.)
type httpLiveBackfill struct {
	client   *http.Client
	series   []*series
	history  int64
	lowWater func(acked int64) int64

	bodies  [][]byte
	keys    [][]opKey // per body: the inserts it turns into, for the trace
	liveCum []int64   // liveCum[b]: live points per sensor after the first b bodies
	rwCum   []int     // rwCum[b]: rewrites per sensor after the first b bodies
	warm    int       // bodies sent by the warm-up

	sent, acked  atomic.Int64 // bodies handed to the client, and acknowledged
	unverifiable atomic.Int64 // sampled queries a concurrent backfill made unverifiable

	queries  []httpQuery // pre-generated reader ops, cycled
	lateness []time.Duration
}

type httpQuery struct {
	historic bool
	sensor   int
	u        float64 // where in the backfilled zone a historic query starts
}

func (w *httpLiveBackfill) setup(h *harness) error {
	sz := h.sz
	rng := rand.New(rand.NewSource(h.seed))
	st := newStream("lognormal-1-1", sz.streamLen, h.seed)
	w.history = sz.httpHistory
	names := balancedNames("m,dev=d%03d.v", sz.httpSensors, shardCount)
	for _, name := range names {
		w.series = append(w.series, &series{name: name, st: st, inOrder: w.history, stride: 1})
	}
	w.lowWater = w.series[0].lowWater(sz.httpPerSensor)

	var err error
	if h.srv, err = h.newStore("http_live_backfill", sz.httpPartition); err != nil {
		return err
	}
	// History: written in order, in process, before the clock starts.
	times := make([]int64, rpcBatch)
	scratch := make([]float64, rpcBatch)
	for _, s := range w.series {
		for k := int64(0); k < w.history; k += rpcBatch {
			vals := s.fill(k, times, scratch)
			if err := h.srv.router.InsertBatch(s.name, times, vals); err != nil {
				return fmt.Errorf("preload history: %w", err)
			}
		}
		s.acked = w.history
	}
	h.srv.router.Flush()
	if err := h.srv.settle(); err != nil {
		return err
	}

	w.warm = sz.httpWarmBodies
	w.generateBodies(h, rng, w.warm+int(sz.httpBodiesPerS*h.seconds)+1)
	w.queries = make([]httpQuery, 1024)
	for i := range w.queries {
		w.queries[i] = httpQuery{historic: i%4 == 3, sensor: rng.Intn(len(w.series)), u: rng.Float64()}
	}

	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	// Warm-up: closed loop, a query after every body.
	rec := &recorder{}
	for b := 0; b < w.warm; b++ {
		w.post(h, b)
		w.queryOnce(h, rec, b)
	}
	h.checks = nil
	return h.srv.settle()
}

// generateBodies builds every body the run can send, so that nothing
// but sending happens on the clock.
func (w *httpLiveBackfill) generateBodies(h *harness, rng *rand.Rand, count int) {
	sz := h.sz
	per := sz.httpPerSensor
	times := make([]int64, per)
	scratch := make([]float64, per)
	prefixes := make([]string, len(w.series))
	for i, s := range w.series {
		prefixes[i] = strings.TrimSuffix(s.name, ".v") + " v="
	}
	w.liveCum = make([]int64, count+1)
	w.rwCum = make([]int, count+1)
	rewritten := make([]map[int64]bool, len(w.series)) // per series: rewrite start ticks taken
	for i := range rewritten {
		rewritten[i] = map[int64]bool{}
	}
	var buf bytes.Buffer
	for b := 0; b < count; b++ {
		buf.Reset()
		live := w.liveCum[b]
		backfill := rng.Intn(100) < sz.httpBackfillPct
		keys := make([]opKey, len(w.series))
		for i, s := range w.series {
			var vals []float64
			if backfill {
				// A stretch two to six partitions behind the live tail;
				// all of it was written long ago, so this is a rewrite.
				gen := float64(w.rwCum[b] + 1)
				// No two rewrites of a series share a timestamp (see
				// backfillZone for why).
				lo, hi := w.backfillZone(sz, b)
				var t0 int64
				for {
					t0 = (lo + rng.Int63n(hi-lo-int64(per))) / int64(per) * int64(per)
					if !rewritten[i][t0] {
						rewritten[i][t0] = true
						break
					}
				}
				vals = scratch
				for j := range times {
					times[j] = t0 + int64(j)
					vals[j] = s.tickValue(times[j]) + gen
				}
				s.rewrites = append(s.rewrites, rewrite{t0: t0, n: int64(per), add: gen})
			} else {
				vals = s.fill(w.history+live, times, scratch)
			}
			keys[i] = opKey{'w', s.name, times[0], int64(per)}
			for j, t := range times {
				buf.WriteString(prefixes[i])
				buf.Write(strconv.AppendFloat(buf.AvailableBuffer(), vals[j], 'g', -1, 64))
				buf.WriteByte(' ')
				buf.Write(strconv.AppendInt(buf.AvailableBuffer(), t, 10))
				buf.WriteByte('\n')
			}
		}
		w.bodies = append(w.bodies, bytes.Clone(buf.Bytes()))
		w.keys = append(w.keys, keys)
		w.liveCum[b+1], w.rwCum[b+1] = live, w.rwCum[b]
		if backfill {
			w.rwCum[b+1]++
		} else {
			w.liveCum[b+1] += int64(per)
		}
	}
}

// backfillZone is the range of ticks a backfill in body b may rewrite
// and a historic query after b bodies reads: two to six partitions
// behind the live tail. It also ends no later than what was written
// two memtables' worth of bodies ago, and rewrites never overlap each
// other, because the engine keeps the OLDER of two writes to one
// timestamp when both land in the same memtable (README, Findings). A
// benchmark's ops must not fail, so it keeps every rewrite at least
// one memtable rotation away from the write it replaces; rotation
// happens on a point count, so this holds on every run.
func (w *httpLiveBackfill) backfillZone(sz sizes, b int) (lo, hi int64) {
	bodyPoints := len(w.series) * sz.httpPerSensor
	safe := 2 * memTableSize * shardCount / bodyPoints
	hi = w.lowWater(w.history+w.liveCum[b]) - 2*sz.httpPartition
	hi = min(hi, w.lowWater(w.history+w.liveCum[max(b-safe, 0)]))
	return max(hi-4*sz.httpPartition, 0), hi
}

// post sends body b and waits for the answer.
func (w *httpLiveBackfill) post(h *harness, b int) (traced bool, err error) {
	op := h.startOp("client.write")
	op.enter("httpgw.write", w.keys[b]...)
	w.sent.Store(int64(b + 1))
	resp, err := w.client.Post(h.srv.httpURL+"/write", "text/plain", bytes.NewReader(w.bodies[b]))
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			err = rpc.ErrOverloaded // the gateway's form of the same refusal
		case resp.StatusCode != http.StatusNoContent && err == nil:
			err = fmt.Errorf("POST /write: %s", resp.Status)
		}
	}
	op.leave()
	op.finish(len(w.series) * h.sz.httpPerSensor)
	w.acked.Store(int64(b + 1))
	return op.traced(), err
}

// queryOnce issues reader op number n.
func (w *httpLiveBackfill) queryOnce(h *harness, rec *recorder, n int) {
	sz := h.sz
	q := w.queries[n%len(w.queries)]
	s := w.series[q.sensor]
	a0 := w.acked.Load()
	// Everything below the low-water mark of the acknowledged live
	// bodies is final as far as live writes go.
	st := state{acked: w.history + w.liveCum[a0], rewrites: w.rwCum[a0]}
	end := w.lowWater(st.acked)
	class := classQuery
	if q.historic {
		class = classHistoric
		zoneLo, zoneHi := w.backfillZone(sz, int(a0))
		end = zoneLo + sz.httpWindow + int64(q.u*float64(zoneHi-zoneLo-sz.httpWindow))
	}
	start := end - sz.httpWindow

	op := h.startOp("client." + classNames[class])
	op.enter("httpgw.query", opKey{'a', s.name, start, end})
	t0 := time.Now()
	u := h.srv.httpURL + "/query?" + url.Values{
		"sensor": {s.name}, "agg": {"avg"},
		"start":  {strconv.FormatInt(start, 10)},
		"end":    {strconv.FormatInt(end, 10)},
		"window": {strconv.FormatInt(sz.httpQueryWin, 10)},
	}.Encode()
	var body []byte
	resp, err := w.client.Get(u)
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /query: %s", resp.Status)
		}
	}
	lat := time.Since(t0)
	op.leave()
	sentAfter := w.sent.Load()

	var parsed struct {
		Windows []struct {
			Start int64
			Count int
			Value float64
		}
	}
	if err == nil {
		err = json.Unmarshal(body, &parsed)
	}
	got := make([]query.WindowResult, len(parsed.Windows))
	points := 0
	for i, win := range parsed.Windows {
		got[i] = query.WindowResult{Start: win.Start, Count: win.Count, Value: win.Value}
		points += win.Count
	}
	op.finish(points)
	rec.done(class, lat, points, err, op.traced())
	if err != nil || n%20 != 0 {
		return
	}
	// One query in twenty is checked, unless a backfill body that was
	// in flight while it ran touches its range: then the model cannot
	// say which answer is right.
	for _, rw := range s.rewrites[st.rewrites:w.rwCum[sentAfter]] {
		if rw.t0 < end && rw.t0+rw.n > start {
			w.unverifiable.Add(1)
			return
		}
	}
	h.addCheck(fmt.Sprintf("GET /query %s [%d,%d) after %d bodies", s.name, start, end, a0),
		func() bool { return sameWindows(got, s.windows(start, end, sz.httpQueryWin, st)) })
}

func (w *httpLiveBackfill) run(h *harness) time.Duration {
	interval := time.Duration(float64(time.Second) / h.sz.httpBodiesPerS)
	length := time.Duration(h.seconds * float64(time.Second))
	writer := func(rec *recorder, _ func() bool) {
		var errs []error
		var traced []bool
		res := runOpenLoop(wallClock{}, interval, length, func(i int) {
			tr, err := w.post(h, w.warm+i)
			errs, traced = append(errs, err), append(traced, tr)
		})
		for i, lat := range res.latency {
			rec.done(classWrite, lat, len(w.series)*h.sz.httpPerSensor, errs[i], traced[i])
		}
		w.lateness = res.lateness
	}
	reader := func(rec *recorder, stop func() bool) {
		for n := w.warm; !stop(); n++ {
			w.queryOnce(h, rec, n)
		}
	}
	return h.measure(writer, reader)
}

// allSeries also brings the model up to date: what was acknowledged is
// only known once the writer has stopped.
func (w *httpLiveBackfill) allSeries() []*series {
	for _, s := range w.series {
		s.acked = w.history + w.liveCum[w.acked.Load()]
		s.rewrites = s.rewrites[:w.rwCum[w.acked.Load()]]
	}
	return w.series
}

// afterPhase reports how well the open-loop generator kept its
// schedule: a late generator means the latencies are the harness's.
func (w *httpLiveBackfill) afterPhase(h *harness, out *outcome) {
	var late samples
	for _, d := range w.lateness {
		late.add(d, 0)
	}
	out.extra["client.lateness_p99_ms"], _ = late.tail(99)
	out.extra["client.achieved_rate_ratio"] = ratio(float64(len(w.lateness))/out.wall.Seconds(), h.sz.httpBodiesPerS)
	out.extra["client.unverifiable"] = float64(w.unverifiable.Load())
}

func (w *httpLiveBackfill) close() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}
