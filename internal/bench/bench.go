// Package bench is this repository's analog of IoTDB-benchmark
// (Section VI-A2 of the paper): it generates periodic time series with
// configurable out-of-order delay, sends them to a storage target in
// batches (the paper's optimal batch size of 500), mixes in time-range
// queries of the form
//
//	SELECT * FROM data WHERE time > current - window
//
// according to a write percentage, and reports the paper's three
// system metrics: client-side query throughput (points/s), server-side
// average flush time, and total test latency.
package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// Target abstracts the system under test so the same workload can
// drive an in-process engine or a remote server over TCP.
type Target interface {
	// InsertBatch writes one batch for a sensor.
	InsertBatch(sensor string, times []int64, values []float64) error
	// QueryCount runs a time-range query and returns the number of
	// points it produced.
	QueryCount(sensor string, minT, maxT int64) (int, error)
	// Latest returns the sensor's newest ingested timestamp.
	Latest(sensor string) (int64, bool, error)
	// Settle waits for in-flight background work (pending flushes) so
	// the final Stats snapshot is complete.
	Settle() error
	// Stats returns server-side metrics: the aggregate and, from the
	// same collection, the per-shard breakdown (a tsdbd over rpc
	// reports one snapshot per shard; in-process targets report none).
	Stats() (engine.Stats, []engine.Stats, error)
}

// LocalEngine is the in-process storage surface EngineTarget adapts:
// the shard router cmd/repro measures through, or an *engine.Engine in
// package tests.
type LocalEngine interface {
	InsertBatch(sensor string, times []int64, values []float64) error
	Query(sensor string, minT, maxT int64) ([]engine.TV, error)
	LatestTime(sensor string) (int64, bool)
	WaitFlushes()
	Stats() engine.Stats
}

// EngineTarget adapts a LocalEngine to Target.
type EngineTarget struct{ E LocalEngine }

// InsertBatch implements Target.
func (t EngineTarget) InsertBatch(sensor string, ts []int64, vs []float64) error {
	return t.E.InsertBatch(sensor, ts, vs)
}

// QueryCount implements Target.
func (t EngineTarget) QueryCount(sensor string, minT, maxT int64) (int, error) {
	out, err := t.E.Query(sensor, minT, maxT)
	return len(out), err
}

// Latest implements Target.
func (t EngineTarget) Latest(sensor string) (int64, bool, error) {
	v, ok := t.E.LatestTime(sensor)
	return v, ok, nil
}

// Settle implements Target.
func (t EngineTarget) Settle() error {
	t.E.WaitFlushes()
	return nil
}

// Stats implements Target.
func (t EngineTarget) Stats() (engine.Stats, []engine.Stats, error) { return t.E.Stats(), nil, nil }

// Config is one benchmark run.
type Config struct {
	// WritePercent in [0,1]: fraction of operations that are batch
	// writes (the paper sweeps 25%..100%).
	WritePercent float64
	// BatchSize is points per write batch (default 500, Section
	// VI-A2).
	BatchSize int
	// Operations is the total operation count (writes + queries).
	Operations int
	// Devices is how many simulated devices emit data. Each write
	// operation sends one device's batch; each device's sensors share
	// the device's arrival order, as in IoTDB-benchmark.
	Devices int
	// SensorsPerDevice is the chunk fan-out per memtable ("each
	// memory table may have multiple chunks, and each chunk contains
	// one TVList that corresponds to one sensor", Section V-A).
	SensorsPerDevice int
	// Dataset names the generator: "absnormal", "lognormal" (with Mu,
	// Sigma), or a real-world dataset name from the dataset package.
	Dataset string
	// Mu, Sigma parameterize the synthetic delay distributions.
	Mu, Sigma float64
	// WindowTicks is the query window: time > current - window.
	// Default 50,000 ticks.
	WindowTicks int64
	// Clients is the number of concurrent client goroutines.
	Clients int
	// Seed makes runs reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = 500
	}
	if c.Operations <= 0 {
		c.Operations = 200
	}
	if c.Devices <= 0 {
		c.Devices = 4
	}
	if c.SensorsPerDevice <= 0 {
		c.SensorsPerDevice = 1
	}
	if c.WindowTicks <= 0 {
		c.WindowTicks = 50000
	}
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.Dataset == "" {
		c.Dataset = "lognormal"
	}
	return c
}

// Result is the outcome of one run, carrying the paper's metrics.
type Result struct {
	Config        Config
	WriteOps      int
	QueryOps      int
	PointsWritten int64
	PointsQueried int64
	// QueryThroughput is points returned per second of query time —
	// the client-side, user-perceived metric of Figures 13–15.
	QueryThroughput float64
	AvgQueryMillis  float64
	// P50/P95/P99QueryMillis are per-query latency percentiles.
	P50QueryMillis float64
	P95QueryMillis float64
	P99QueryMillis float64
	// TotalLatency is the wall time of the whole test (Figures
	// 19–21).
	TotalLatency time.Duration
	// Stats is the target's aggregate snapshot after the run settled:
	// the server-side flush metrics of Figures 16–18 (FlushCount,
	// AvgFlushMillis, AvgSortMillis) and every other engine counter.
	engine.Stats
	// PerShard holds the per-shard stats breakdown when the target is
	// a tsdbd over rpc; empty against an in-process target.
	PerShard []engine.Stats
}

// deviceStream hands out successive batches of one device's
// pre-generated arrival-order series. All the device's sensors share
// the arrival timestamps; per-sensor values are derived from the base
// signal with a per-sensor offset.
type deviceStream struct {
	mu      sync.Mutex
	device  int
	sensors []string
	series  *dataset.Series
	pos     int
}

// batch is one device write: the same timestamps for every sensor.
type batch struct {
	times   []int64
	perSenV [][]float64
	sensors []string
}

func (s *deviceStream) nextBatch(n int) batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pos >= s.series.Len() {
		s.pos = 0 // wrap: the benchmark can outlast the generated data
	}
	end := s.pos + n
	if end > s.series.Len() {
		end = s.series.Len()
	}
	ts := s.series.Times[s.pos:end]
	base := s.series.Values[s.pos:end]
	out := batch{times: ts, sensors: s.sensors, perSenV: make([][]float64, len(s.sensors))}
	for si := range s.sensors {
		if si == 0 {
			out.perSenV[si] = base
			continue
		}
		vs := make([]float64, len(base))
		offset := float64(si * 3)
		for i, v := range base {
			vs[i] = v + offset
		}
		out.perSenV[si] = vs
	}
	s.pos = end
	return out
}

// makeSeries builds the per-sensor series for cfg.
func makeSeries(cfg Config, sensor int, points int) (*dataset.Series, error) {
	seed := cfg.Seed*1000003 + int64(sensor)
	switch cfg.Dataset {
	case "absnormal":
		return dataset.AbsNormal(points, cfg.Mu, cfg.Sigma, seed), nil
	case "lognormal":
		return dataset.LogNormal(points, cfg.Mu, cfg.Sigma, seed), nil
	default:
		if s, ok := dataset.ByName(cfg.Dataset, points, seed); ok {
			return s, nil
		}
		return nil, fmt.Errorf("bench: unknown dataset %q", cfg.Dataset)
	}
}

// Run executes the workload against the target.
func Run(target Target, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Config: cfg}

	// Pre-generate data so generation cost stays out of the measured
	// window (IoTDB-benchmark also generates ahead of sending).
	writeOps := int(float64(cfg.Operations)*cfg.WritePercent + 0.5)
	pointsPerDevice := (writeOps*cfg.BatchSize + cfg.Devices - 1) / cfg.Devices
	if pointsPerDevice < cfg.BatchSize {
		pointsPerDevice = cfg.BatchSize
	}
	streams := make([]*deviceStream, cfg.Devices)
	for i := range streams {
		s, err := makeSeries(cfg, i, pointsPerDevice)
		if err != nil {
			return res, err
		}
		sensors := make([]string, cfg.SensorsPerDevice)
		for si := range sensors {
			sensors[si] = fmt.Sprintf("d%d.s%d", i, si)
		}
		streams[i] = &deviceStream{device: i, sensors: sensors, series: s}
	}

	var (
		opCounter  atomic.Int64
		writeCount atomic.Int64
		queryCount atomic.Int64
		pointsW    atomic.Int64
		pointsQ    atomic.Int64
		queryNanos atomic.Int64
		latMu      sync.Mutex
		latencies  []float64 // per-query milliseconds
		firstErr   error
		firstErrMu sync.Mutex
	)
	recordErr := func(err error) {
		firstErrMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		firstErrMu.Unlock()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed*7919 + int64(c)))
			for {
				op := opCounter.Add(1)
				if op > int64(cfg.Operations) {
					return
				}
				stream := streams[r.Intn(len(streams))]
				if r.Float64() < cfg.WritePercent {
					b := stream.nextBatch(cfg.BatchSize)
					for si, sensor := range b.sensors {
						if err := target.InsertBatch(sensor, b.times, b.perSenV[si]); err != nil {
							recordErr(err)
							return
						}
						pointsW.Add(int64(len(b.times)))
					}
					writeCount.Add(1)
				} else {
					sensor := stream.sensors[r.Intn(len(stream.sensors))]
					latest, ok, err := target.Latest(sensor)
					if err != nil {
						recordErr(err)
						return
					}
					if !ok {
						continue // nothing ingested yet for this sensor
					}
					t0 := time.Now()
					n, err := target.QueryCount(sensor, latest-cfg.WindowTicks, latest)
					if err != nil {
						recordErr(err)
						return
					}
					elapsed := time.Since(t0)
					queryNanos.Add(int64(elapsed))
					queryCount.Add(1)
					pointsQ.Add(int64(n))
					latMu.Lock()
					latencies = append(latencies, float64(elapsed.Microseconds())/1000)
					latMu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	res.TotalLatency = time.Since(start)
	if firstErr != nil {
		return res, firstErr
	}

	res.WriteOps = int(writeCount.Load())
	res.QueryOps = int(queryCount.Load())
	res.PointsWritten = pointsW.Load()
	res.PointsQueried = pointsQ.Load()
	if qn := queryNanos.Load(); qn > 0 {
		res.QueryThroughput = float64(res.PointsQueried) / (float64(qn) / 1e9)
		res.AvgQueryMillis = float64(qn) / 1e6 / float64(res.QueryOps)
		res.P50QueryMillis = stats.Percentile(latencies, 50)
		res.P95QueryMillis = stats.Percentile(latencies, 95)
		res.P99QueryMillis = stats.Percentile(latencies, 99)
	}
	err := target.Settle()
	if err != nil {
		return res, err
	}
	res.Stats, res.PerShard, err = target.Stats()
	return res, err
}
