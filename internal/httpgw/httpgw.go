package httpgw

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/ingestq"
	"repro/internal/query"
	"repro/internal/winagg"
)

// MaxBody bounds one /write request body. It matches the RPC frame
// bound: a peer cannot force a larger allocation over HTTP than over
// the binary protocol.
const MaxBody = 16 << 20

// Backend is the storage the gateway fronts — the shard router tsdbd
// serves. It is the write and windowed-query subset of the RPC
// server's backend plus the aggregate Stats, so the same value serves
// both front ends.
type Backend interface {
	InsertBatch(sensor string, times []int64, values []float64) error
	AggregateWindows(sensor string, startT, endT, window int64, op winagg.Op) ([]winagg.Window, error)
	Stats() engine.Stats
}

// Gateway serves the HTTP ingest front end. Create with New, mount
// Handler on an http.Server, and Close when done.
type Gateway struct {
	backend  Backend
	queue    *ingestq.Queue
	ownQueue bool
	now      func() int64

	writes atomic.Int64 // /write requests that ingested successfully
	points atomic.Int64 // points ingested via /write
}

// New builds a gateway over backend. queue is the bounded dispatch
// queue shared with the RPC server so both front ends saturate — and
// reject — together; pass nil to give the gateway a private queue
// with default bounds (it is closed by Close then).
func New(backend Backend, queue *ingestq.Queue) *Gateway {
	g := &Gateway{backend: backend, queue: queue, now: func() int64 { return time.Now().UnixNano() }}
	if g.queue == nil {
		g.queue = ingestq.New(0, 0)
		g.ownQueue = true
	}
	return g
}

// SetNow overrides the timestamp source for lines without one — tests
// pin it for determinism.
func (g *Gateway) SetNow(now func() int64) { g.now = now }

// Close releases gateway resources: a private queue is drained and
// stopped, a shared one is left to its owner. Call only after the
// http.Server serving Handler has shut down.
func (g *Gateway) Close() {
	if g.ownQueue {
		g.queue.Close()
	}
}

// Handler returns the gateway's routes:
//
//	POST /write  — line-protocol ingest (204, or 429 + Retry-After)
//	GET  /query  — windowed aggregation passthrough (JSON)
//	GET  /stats  — backend + front-end counters (JSON)
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /write", g.handleWrite)
	mux.HandleFunc("GET /query", g.handleQuery)
	mux.HandleFunc("GET /stats", g.handleStats)
	return mux
}

// httpError sends a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleWrite ingests a line-protocol payload. The parsed batch is
// submitted to the bounded dispatch queue as one task; a full queue
// answers 429 with the queue's Retry-After estimate, identical in
// policy (and cause) to the RPC server's StatusOverloaded.
func (g *Gateway) handleWrite(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBody))
	if err != nil {
		httpError(w, http.StatusRequestEntityTooLarge, "body too large or unreadable: %v", err)
		return
	}
	pts, err := ParseLineProtocol(body, g.now)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(pts) == 0 {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	batches := groupBySensor(pts)

	done := make(chan error, 1)
	task := func() {
		var firstErr error
		for _, b := range batches {
			if err := g.backend.InsertBatch(b.sensor, b.times, b.values); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		done <- firstErr
	}
	if err := g.queue.TrySubmit(task); err != nil {
		if errors.Is(err, ingestq.ErrClosed) {
			httpError(w, http.StatusServiceUnavailable, "shutting down")
			return
		}
		retry := g.queue.RetryAfter()
		w.Header().Set("Retry-After", strconv.FormatInt(retryAfterSeconds(retry), 10))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]any{
			"error":          "overloaded",
			"retry_after_ms": retry.Milliseconds(),
		})
		return
	}
	// Never wait unconditionally: the request may be abandoned by the
	// client, and a submit racing Queue.Close can be accepted yet end
	// up running inside Close (or, losing the race entirely, never) —
	// queue.Done() unblocks this handler in every such case, so
	// http.Server.Shutdown cannot hang on it.
	select {
	case err := <-done:
		if err != nil {
			httpError(w, http.StatusInternalServerError, "insert: %v", err)
			return
		}
	case <-r.Context().Done():
		// Client gone; the insert may still complete in the background,
		// but there is no one left to answer.
		return
	case <-g.queue.Done():
		select {
		case err := <-done: // the task ran during Close's straggler drain
			if err != nil {
				httpError(w, http.StatusInternalServerError, "insert: %v", err)
				return
			}
		default:
			httpError(w, http.StatusServiceUnavailable, "shutting down")
			return
		}
	}
	g.writes.Add(1)
	g.points.Add(int64(len(pts)))
	w.WriteHeader(http.StatusNoContent)
}

// retryAfterSeconds renders a duration as the integer seconds the
// Retry-After header wants, rounding up so a 50ms hint doesn't become
// "retry immediately".
func retryAfterSeconds(d time.Duration) int64 {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

type batch struct {
	sensor string
	times  []int64
	values []float64
}

// groupBySensor folds points into per-sensor insert batches,
// preserving each sensor's arrival order (the engine handles
// out-of-order times; preserving order keeps the common in-order
// case on the engine's fast path).
func groupBySensor(pts []Point) []batch {
	idx := make(map[string]int)
	var out []batch
	for _, p := range pts {
		i, ok := idx[p.Sensor]
		if !ok {
			i = len(out)
			idx[p.Sensor] = i
			out = append(out, batch{sensor: p.Sensor})
		}
		out[i].times = append(out[i].times, p.T)
		out[i].values = append(out[i].values, p.V)
	}
	return out
}

// aggByName maps /query agg parameter values to aggregators, using
// the same names winagg.Op.String() reports.
var aggByName = map[string]query.Aggregator{
	"count": query.Count,
	"sum":   query.Sum,
	"avg":   query.Avg,
	"min":   query.Min,
	"max":   query.Max,
	"first": query.First,
	"last":  query.Last,
}

// windowJSON is one aggregated window in a /query response.
type windowJSON struct {
	Start int64   `json:"start"`
	Count int     `json:"count"`
	Value float64 `json:"value"`
}

// handleQuery answers GET /query?sensor=S&start=A&end=B&window=W&agg=F
// with the windowed aggregation the RPC OpAgg would return, as JSON.
// It goes through query.WindowQuery, so the backend answers from chunk
// statistics exactly as it does for RPC clients.
func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	sensor := q.Get("sensor")
	if sensor == "" {
		httpError(w, http.StatusBadRequest, "missing sensor parameter")
		return
	}
	var startT, endT, window int64
	for _, p := range []struct {
		name string
		dst  *int64
	}{{"start", &startT}, {"end", &endT}, {"window", &window}} {
		v := q.Get(p.name)
		if v == "" {
			httpError(w, http.StatusBadRequest, "missing %s parameter", p.name)
			return
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad %s %q", p.name, v)
			return
		}
		*p.dst = n
	}
	aggName := q.Get("agg")
	if aggName == "" {
		aggName = "avg"
	}
	agg, ok := aggByName[aggName]
	if !ok {
		names := make([]string, 0, len(aggByName))
		for n := range aggByName {
			names = append(names, n)
		}
		sort.Strings(names)
		httpError(w, http.StatusBadRequest, "unknown agg %q (have %v)", aggName, names)
		return
	}
	ws, err := query.WindowQuery(g.backend, sensor, startT, endT, window, agg)
	if err != nil {
		// Parameter mistakes are the client's (400); anything else is a
		// storage/engine fault and must surface as a server error, or
		// monitoring never sees it.
		status := http.StatusInternalServerError
		if errors.Is(err, query.ErrInvalidArgument) {
			status = http.StatusBadRequest
		}
		httpError(w, status, "%v", err)
		return
	}
	out := make([]windowJSON, len(ws))
	for i, win := range ws {
		out[i] = windowJSON{Start: win.Start, Count: win.Count, Value: win.Value}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"sensor": sensor, "agg": aggName, "windows": out})
}

// handleStats reports the backend's stats with the front-end counters
// overlaid: queue depth/capacity and accept/reject totals from the
// shared dispatch queue, plus the gateway's own HTTP counters.
func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	st := g.backend.Stats()
	g.queue.Stats().Overlay(&st)
	st.HTTPWrites = g.writes.Load()
	st.HTTPPoints = g.points.Load()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}
