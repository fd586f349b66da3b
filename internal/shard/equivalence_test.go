package shard

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/query"
)

// TestOneShardFlatEquivalence pins the paper-measurement path: a
// one-shard router with flat string sensors (no label routing, the
// configuration cmd/repro uses a bare engine for) returns exactly what
// the bare engine returns — same points, same windows, same file
// counts — so layering the label subsystem above the router cannot
// have perturbed the published flat-sensor behavior.
//
// Inline flushes make each store's file layout — flushes and the
// compaction passes that follow them — a function of the input alone,
// so window averages compare bit for bit. With background flushes the
// layout depends on timing: a window average answered partly from
// block statistics sums in a different order and may differ in its
// last bits, so there it must agree to a relative 1e-12 (counts and
// raw points still exactly).
func TestOneShardFlatEquivalence(t *testing.T) {
	for _, sync := range []bool{true, false} {
		t.Run(fmt.Sprintf("SyncFlush=%v", sync), func(t *testing.T) {
			flatEquivalence(t, sync)
		})
	}
}

func flatEquivalence(t *testing.T, syncFlush bool) {
	mkCfg := func(dir string) engine.Config {
		return engine.Config{Dir: dir, MemTableSize: 256, SyncFlush: syncFlush}
	}
	bare, err := engine.Open(mkCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	routed, err := Open(Config{Config: mkCfg(t.TempDir()), ShardCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer routed.Close()

	rng := rand.New(rand.NewSource(42))
	sensors := []string{"s.engine.speed", "s.engine.temp", "s.chassis.vib"}
	for i := 0; i < 3000; i++ {
		sensor := sensors[rng.Intn(len(sensors))]
		// Unique but disordered timestamps: each block of 10 arrives
		// reversed, exercising the unseq path deterministically.
		ts := int64(i - i%10 + (9 - i%10))
		v := rng.Float64() * 100
		if err := bare.Insert(sensor, ts, v); err != nil {
			t.Fatal(err)
		}
		if err := routed.Insert(sensor, ts, v); err != nil {
			t.Fatal(err)
		}
	}
	bare.Flush()
	bare.WaitFlushes()
	routed.Flush()
	routed.WaitFlushes()

	for _, sensor := range sensors {
		b, err := bare.Query(sensor, -100, 3100)
		if err != nil {
			t.Fatal(err)
		}
		r, err := routed.Query(sensor, -100, 3100)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b, r) {
			t.Fatalf("%s: routed query differs from bare engine", sensor)
		}
		bw, err := query.WindowQuery(bare, sensor, 0, 3000, 250, query.Avg)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := query.WindowQuery(routed, sensor, 0, 3000, 250, query.Avg)
		if err != nil {
			t.Fatal(err)
		}
		if syncFlush {
			if !reflect.DeepEqual(bw, rw) {
				t.Fatalf("%s: routed windows differ from bare engine", sensor)
			}
			continue
		}
		if len(bw) != len(rw) {
			t.Fatalf("%s: %d routed windows, bare engine has %d", sensor, len(rw), len(bw))
		}
		for i := range bw {
			if bw[i].Start != rw[i].Start || bw[i].Count != rw[i].Count ||
				math.Abs(bw[i].Value-rw[i].Value) > 1e-12*math.Abs(bw[i].Value) {
				t.Fatalf("%s: routed window %+v differs from bare engine's %+v", sensor, rw[i], bw[i])
			}
		}
	}

	// Flat-sensor use never touches the label layer: no series appear,
	// and the index stays empty (its catalog is created lazily, so the
	// on-disk shard layout matches the pre-label format).
	if n := routed.SeriesCount(); n != 0 {
		t.Fatalf("flat inserts registered %d label series", n)
	}
}
