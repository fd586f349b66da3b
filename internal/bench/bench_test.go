package bench

import (
	"fmt"
	"testing"

	"repro/internal/engine"
)

func newEngine(t *testing.T, algo string) *engine.Engine {
	t.Helper()
	e, err := engine.Open(engine.Config{
		Dir:          t.TempDir(),
		MemTableSize: 2000,
		Algorithm:    algo,
		SyncFlush:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestRunMixedWorkload(t *testing.T) {
	e := newEngine(t, "backward")
	res, err := Run(EngineTarget{e}, Config{
		WritePercent: 0.75,
		BatchSize:    100,
		Operations:   80,
		Devices:      2,
		Dataset:      "lognormal",
		Mu:           1,
		Sigma:        2,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteOps+res.QueryOps == 0 || res.WriteOps+res.QueryOps > 80 {
		t.Fatalf("op accounting wrong: %+v", res)
	}
	if res.PointsWritten != int64(res.WriteOps)*100 {
		t.Fatalf("points written %d for %d writes", res.PointsWritten, res.WriteOps)
	}
	if res.QueryOps > 0 && res.PointsQueried == 0 {
		t.Fatal("queries returned nothing despite writes")
	}
	if res.QueryOps > 0 && res.QueryThroughput <= 0 {
		t.Fatalf("no throughput computed: %+v", res)
	}
	if res.TotalLatency <= 0 {
		t.Fatal("no total latency")
	}
	if res.FlushCount == 0 {
		t.Fatalf("expected flushes at memtable size 2000: %+v", res)
	}
	if res.QueryOps > 0 {
		if res.P50QueryMillis <= 0 || res.P99QueryMillis < res.P95QueryMillis || res.P95QueryMillis < res.P50QueryMillis {
			t.Fatalf("latency percentiles inconsistent: %+v", res)
		}
	}
}

func TestRunWriteOnly(t *testing.T) {
	// Write percentage 1.0: no queries, hence no query throughput —
	// the paper notes this case explicitly.
	e := newEngine(t, "quick")
	res, err := Run(EngineTarget{e}, Config{
		WritePercent: 1.0,
		BatchSize:    50,
		Operations:   40,
		Devices:      1,
		Dataset:      "absnormal",
		Mu:           1,
		Sigma:        1,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryOps != 0 || res.QueryThroughput != 0 {
		t.Fatalf("write-only run performed queries: %+v", res)
	}
	if res.WriteOps != 40 {
		t.Fatalf("write ops = %d, want 40", res.WriteOps)
	}
}

func TestRunRealWorldDatasetsAndClients(t *testing.T) {
	for _, ds := range []string{"citibike-201808", "samsung-s10"} {
		e := newEngine(t, "backward")
		res, err := Run(EngineTarget{e}, Config{
			WritePercent: 0.9,
			BatchSize:    200,
			Operations:   40,
			Devices:      3,
			Dataset:      ds,
			Clients:      4,
			Seed:         3,
		})
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if res.WriteOps == 0 {
			t.Fatalf("%s: no writes", ds)
		}
	}
}

func TestRunMultiSensorDevices(t *testing.T) {
	e := newEngine(t, "backward")
	res, err := Run(EngineTarget{e}, Config{
		WritePercent:     1.0,
		BatchSize:        100,
		Operations:       10,
		Devices:          2,
		SensorsPerDevice: 3,
		Dataset:          "lognormal",
		Mu:               1,
		Sigma:            1,
		Seed:             6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each write op fans out to every sensor of the device.
	if res.PointsWritten != int64(res.WriteOps)*100*3 {
		t.Fatalf("device fan-out wrong: %d points for %d writes", res.PointsWritten, res.WriteOps)
	}
	// A device's sensors share timestamps, and at least one device
	// received data (device choice is random per op).
	sawData := false
	for d := 0; d < 2; d++ {
		var prev []int64
		for s := 0; s < 3; s++ {
			out, err := e.Query(fmt.Sprintf("d%d.s%d", d, s), -1<<62, 1<<62)
			if err != nil {
				t.Fatal(err)
			}
			times := make([]int64, len(out))
			for i := range out {
				times[i] = out[i].T
			}
			if s > 0 {
				if len(times) != len(prev) {
					t.Fatalf("d%d: sensors disagree on point count", d)
				}
				for i := range times {
					if times[i] != prev[i] {
						t.Fatalf("d%d: sensors disagree on timestamps", d)
					}
				}
			}
			prev = times
		}
		if len(prev) > 0 {
			sawData = true
		}
	}
	if !sawData {
		t.Fatal("no device received any data")
	}
}

func TestRunUnknownDataset(t *testing.T) {
	e := newEngine(t, "backward")
	if _, err := Run(EngineTarget{e}, Config{Dataset: "nope", Seed: 4}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.BatchSize != 500 {
		t.Fatalf("default batch size = %d, want the paper's 500", c.BatchSize)
	}
	if c.Clients != 1 || c.Devices <= 0 || c.SensorsPerDevice <= 0 || c.Operations <= 0 || c.WindowTicks <= 0 {
		t.Fatalf("defaults incomplete: %+v", c)
	}
}

func TestStreamWraps(t *testing.T) {
	e := newEngine(t, "backward")
	// More writes than generated points forces stream wrap-around.
	res, err := Run(EngineTarget{e}, Config{
		WritePercent: 1.0,
		BatchSize:    500,
		Operations:   30,
		Devices:      1,
		Dataset:      "samsung-d5",
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PointsWritten != 15000 {
		t.Fatalf("points written = %d", res.PointsWritten)
	}
}
