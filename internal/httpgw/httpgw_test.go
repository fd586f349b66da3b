package httpgw

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/ingestq"
	"repro/internal/shard"
	"repro/internal/tsfile"
	"repro/internal/winagg"
)

// --- line protocol parser ---

func fixedNow() int64 { return 42 }

func TestParseLineProtocolBasics(t *testing.T) {
	data := []byte("cpu,host=a,region=west usage=0.5 1000\n" +
		"# a comment\n" +
		"\n" +
		"mem free=2048i 2000\n" +
		"cpu,region=west,host=a usage=0.7 3000\n")
	pts, err := ParseLineProtocol(data, fixedNow)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	// Tags sort canonically: both cpu lines land on the same sensor.
	if pts[0].Sensor != "cpu,host=a,region=west.usage" || pts[2].Sensor != pts[0].Sensor {
		t.Fatalf("tag order split the series: %q vs %q", pts[0].Sensor, pts[2].Sensor)
	}
	if pts[1].Sensor != "mem.free" || pts[1].V != 2048 || pts[1].T != 2000 {
		t.Fatalf("integer field parsed wrong: %+v", pts[1])
	}
}

func TestParseLineProtocolDefaultsTimestamp(t *testing.T) {
	pts, err := ParseLineProtocol([]byte("cpu usage=1"), fixedNow)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].T != 42 {
		t.Fatalf("missing timestamp should use now(): %+v", pts)
	}
}

func TestParseLineProtocolMultiField(t *testing.T) {
	pts, err := ParseLineProtocol([]byte("cpu,host=a user=1,sys=2 5"), fixedNow)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[0].Sensor != "cpu,host=a.user" || pts[1].Sensor != "cpu,host=a.sys" {
		t.Fatalf("sensors: %q, %q", pts[0].Sensor, pts[1].Sensor)
	}
}

func TestParseLineProtocolEscapes(t *testing.T) {
	pts, err := ParseLineProtocol([]byte(`disk,path=/var\ log used=9 7`), fixedNow)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Sensor != "disk,path=/var log.used" {
		t.Fatalf("escaped space mishandled: %+v", pts)
	}
}

func TestParseLineProtocolErrors(t *testing.T) {
	for _, bad := range []string{
		"cpu",                   // no fields
		"cpu usage=abc",         // non-numeric value
		"cpu usage=\"s\" 1",     // string value
		", usage=1",             // empty measurement
		"cpu,host usage=1",      // tag without value
		"cpu,h=a,h=b usage=1",   // duplicate tag
		"cpu usage=1 notatime",  // bad timestamp
		"cpu usage=1 1 trailer", // too many sections
		"cpu,host=" + strings.Repeat("h", tsfile.MaxSensorName) + " usage=1", // sensor name over the limit
	} {
		if _, err := ParseLineProtocol([]byte(bad), fixedNow); err == nil {
			t.Errorf("line %q parsed without error", bad)
		}
	}
}

// --- gateway over the one-shard router a default tsdbd serves ---

func newTestGateway(t *testing.T, q *ingestq.Queue) (*Gateway, *httptest.Server) {
	t.Helper()
	e, err := shard.Open(shard.Config{Config: engine.Config{Dir: t.TempDir(), SyncFlush: true}, ShardCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	g := New(e, q)
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		srv.Close()
		g.Close()
	})
	return g, srv
}

func TestWriteQueryRoundTrip(t *testing.T) {
	g, srv := newTestGateway(t, nil)
	g.SetNow(fixedNow)

	var lines strings.Builder
	for i := 0; i < 10; i++ {
		lines.WriteString("engine,unit=7 speed=" + strconv.Itoa(i*10) + " " + strconv.Itoa(i) + "\n")
	}
	resp, err := http.Post(srv.URL+"/write", "text/plain", strings.NewReader(lines.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("/write status = %d, want 204", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/query?sensor=engine,unit=7.speed&start=0&end=10&window=5&agg=avg")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query status = %d", resp.StatusCode)
	}
	var out struct {
		Windows []windowJSON `json:"windows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	// Windows [0,5) and [5,10): averages of {0..40} and {50..90}.
	if len(out.Windows) != 2 || out.Windows[0].Value != 20 || out.Windows[1].Value != 70 {
		t.Fatalf("windows = %+v", out.Windows)
	}
	if out.Windows[0].Count != 5 || out.Windows[1].Count != 5 {
		t.Fatalf("window counts = %+v", out.Windows)
	}
}

// TestWriteRejectsMalformed: one bad line fails the whole payload with
// 400 and writes nothing, not even the payload's good lines. A sensor
// name too long for the chunk format is a bad line: accepted, it would
// fail every later flush of the engine.
func TestWriteRejectsMalformed(t *testing.T) {
	g, srv := newTestGateway(t, nil)
	longTag := strings.Repeat("h", tsfile.MaxSensorName)
	for _, bad := range []string{"cpu usage=notanumber", "cpu,host=" + longTag + " usage=1 2"} {
		body := "cpu usage=1 1\n" + bad + "\n"
		resp, err := http.Post(srv.URL+"/write", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%.40q: write status = %d, want 400", bad, resp.StatusCode)
		}
	}
	if ws, err := g.backend.AggregateWindows("cpu.usage", 0, 11, 11, winagg.Count); err != nil || len(ws) != 0 {
		t.Fatalf("rejected payloads wrote points: %v (%v)", ws, err)
	}
}

// TestWriteOverloadedReturns429: with the shared queue wedged (one
// busy worker, one occupied slot), /write must reject immediately
// with 429 and a Retry-After hint — the HTTP face of the same
// overload policy the RPC path exposes as StatusOverloaded.
func TestWriteOverloadedReturns429(t *testing.T) {
	q := ingestq.New(1, 1)
	defer q.Close()
	_, srv := newTestGateway(t, q)

	release := make(chan struct{})
	started := make(chan struct{})
	if err := q.TrySubmit(func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := q.TrySubmit(func() {}); err != nil { // occupy the single slot
		t.Fatal(err)
	}
	defer close(release)

	resp, err := http.Post(srv.URL+"/write", "text/plain", strings.NewReader("cpu usage=1 1"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded write status = %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", ra)
	}
	var body struct {
		Error        string `json:"error"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error != "overloaded" || body.RetryAfterMS < 1 {
		t.Fatalf("429 body = %+v", body)
	}
}

func TestStatsReportsFrontendCounters(t *testing.T) {
	g, srv := newTestGateway(t, nil)
	g.SetNow(fixedNow)
	resp, err := http.Post(srv.URL+"/write", "text/plain", strings.NewReader("cpu usage=1 1\ncpu usage=2 2"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("/write status = %d", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st engine.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.HTTPWrites != 1 || st.HTTPPoints != 2 {
		t.Fatalf("HTTP counters = %d writes / %d points, want 1/2", st.HTTPWrites, st.HTTPPoints)
	}
	if st.IngestQueueCap != ingestq.DefaultCapacity || st.IngestWorkers < 1 {
		t.Fatalf("queue stats not overlaid: cap=%d workers=%d", st.IngestQueueCap, st.IngestWorkers)
	}
	if st.IngestEnqueued < 1 {
		t.Fatalf("IngestEnqueued = %d, want >= 1", st.IngestEnqueued)
	}
}

func TestQueryParameterValidation(t *testing.T) {
	_, srv := newTestGateway(t, nil)
	for _, path := range []string{
		"/query",          // no sensor
		"/query?sensor=s", // no range
		"/query?sensor=s&start=0&end=10&window=0",         // bad window
		"/query?sensor=s&start=0&end=10&window=x",         // non-numeric
		"/query?sensor=s&start=0&end=10&window=5&agg=p99", // unknown agg
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestMethodRouting: /write is POST-only, /query and /stats GET-only.
func TestMethodRouting(t *testing.T) {
	_, srv := newTestGateway(t, nil)
	resp, err := http.Get(srv.URL + "/write")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /write status = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/stats", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /stats status = %d, want 405", resp.StatusCode)
	}
}

// TestSharedQueueDrains: after a burst of writes through a tiny shared
// queue completes, the gateway remains serviceable (no slot leak).
func TestSharedQueueDrains(t *testing.T) {
	q := ingestq.New(4, 2)
	defer q.Close()
	_, srv := newTestGateway(t, q)
	deadline := time.Now().Add(5 * time.Second)
	ok := 0
	for i := 0; i < 20 && time.Now().Before(deadline); i++ {
		resp, err := http.Post(srv.URL+"/write", "text/plain",
			strings.NewReader("cpu usage=1 "+strconv.Itoa(i)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNoContent {
			ok++
		} else if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if ok == 0 {
		t.Fatal("no write ever succeeded through the shared queue")
	}
}

// TestWriteAfterQueueCloseReturns503: a gateway whose shared queue has
// been closed sheds writes with 503 instead of hanging on a task that
// will never run.
func TestWriteAfterQueueCloseReturns503(t *testing.T) {
	q := ingestq.New(4, 1)
	_, srv := newTestGateway(t, q)
	q.Close()
	resp, err := http.Post(srv.URL+"/write", "text/plain", strings.NewReader("cpu usage=1 1"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write after queue close status = %d, want 503", resp.StatusCode)
	}
}

// TestWriteUnblocksOnClientCancel: an accepted write whose task is
// stuck behind a wedged worker must not pin the handler past the
// request's own lifetime — the handler returns when the client gives
// up.
func TestWriteUnblocksOnClientCancel(t *testing.T) {
	q := ingestq.New(4, 1)
	defer q.Close()
	_, srv := newTestGateway(t, q)

	release := make(chan struct{})
	started := make(chan struct{})
	if err := q.TrySubmit(func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/write",
		strings.NewReader("cpu usage=1 1"))
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
	}
	// Whether the transport reports the cancellation as an error or a
	// truncated response, the handler must have let go promptly.
	if elapsed := time.Since(begin); elapsed > 3*time.Second {
		t.Fatalf("canceled write pinned the handler for %v", elapsed)
	}
}

// failingBackend answers every query with an internal fault.
type failingBackend struct{}

func (failingBackend) InsertBatch(string, []int64, []float64) error { return nil }
func (failingBackend) AggregateWindows(string, int64, int64, int64, winagg.Op) ([]winagg.Window, error) {
	return nil, fmt.Errorf("disk on fire")
}
func (failingBackend) Stats() engine.Stats { return engine.Stats{} }

// TestQueryBackendErrorIs500: parameter mistakes are 400s, but a
// storage-side failure must surface as 500 so monitoring sees it.
func TestQueryBackendErrorIs500(t *testing.T) {
	g := New(failingBackend{}, nil)
	t.Cleanup(g.Close)
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)

	resp, err := http.Get(srv.URL + "/query?sensor=s&start=0&end=10&window=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("backend failure status = %d, want 500", resp.StatusCode)
	}

	// An inverted range is the caller's fault and stays a 400.
	resp, err = http.Get(srv.URL + "/query?sensor=s&start=10&end=0&window=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted range status = %d, want 400", resp.StatusCode)
	}
}
