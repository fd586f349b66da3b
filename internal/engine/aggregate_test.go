package engine

import (
	"math/rand"
	"testing"

	"repro/internal/delay"
	"repro/internal/winagg"
)

// oracleWindows aggregates the fully materialized (decode-everything)
// result of Query, the semantics AggregateWindows must reproduce
// bit-for-bit regardless of how many chunks it answers from
// statistics.
func oracleWindows(t *testing.T, e *Engine, sensor string, startT, endT, window int64, op winagg.Op) []winagg.Window {
	t.Helper()
	pts, err := e.Query(sensor, startT, endT-1)
	if err != nil {
		t.Fatal(err)
	}
	accs := map[int64]*winagg.Acc{}
	var starts []int64
	for _, p := range pts {
		ws := winagg.WindowStart(startT, p.T, window)
		a := accs[ws]
		if a == nil {
			a = &winagg.Acc{Op: op}
			accs[ws] = a
			starts = append(starts, ws)
		}
		a.AddPoint(p.V)
	}
	var out []winagg.Window
	for _, ws := range starts {
		a := accs[ws]
		out = append(out, winagg.Window{Start: ws, Count: a.Count(), Value: a.Result()})
	}
	// Query returns sorted points and WindowStart is monotone in t, so
	// starts is already sorted.
	return out
}

func sameWindows(a, b []winagg.Window) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkAllOps(t *testing.T, e *Engine, sensor string, startT, endT, window int64) {
	t.Helper()
	for op := winagg.Count; op <= winagg.Last; op++ {
		got, err := e.AggregateWindows(sensor, startT, endT, window, op)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleWindows(t, e, sensor, startT, endT, window, op)
		if !sameWindows(got, want) {
			t.Fatalf("%v [%d,%d) w=%d: pushdown %v != oracle %v", op, startT, endT, window, got, want)
		}
	}
}

// TestAggregatePushdownMatchesOracle drives the pushdown path through
// random delay/disorder scenarios — including cross-generation
// overwrites of already-flushed ranges — and requires exact agreement
// with materialize-then-aggregate for every operator and many random
// window geometries.
func TestAggregatePushdownMatchesOracle(t *testing.T) {
	dists := []delay.Distribution{
		delay.Constant{C: 0}, // fully in order: stats answers dominate
		delay.DiscreteUniform{K: 8},
		delay.Exponential{Lambda: 0.2},
		delay.LogNormal{Mu: 1, Sigma: 1},
	}
	for di, dist := range dists {
		dist := dist
		t.Run(dist.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + di)))
			// 64-point blocks keep compacted files aligned with the
			// 64-tick windows the pushdown bound below is checked on.
			e := openTest(t, Config{MemTableSize: 64, blockPoints: 64})
			const n = 1500
			for i := 0; i < n; i++ {
				ts := int64(i) - int64(dist.Sample(rng))
				if err := e.Insert("s", ts, float64(ts%131)+0.25); err != nil {
					t.Fatal(err)
				}
			}
			// Cross-generation overwrites: rewrite slices of old,
			// already-flushed time ranges with new values. Newer files
			// must win and must also disqualify the overlapped older
			// chunks from stats-only answers.
			for i := 0; i < 120; i++ {
				ts := int64(rng.Intn(n / 2))
				if err := e.Insert("s", ts, -1000-float64(i)); err != nil {
					t.Fatal(err)
				}
			}
			e.Flush()
			e.WaitFlushes()

			// A broad full-range pass plus random window geometries.
			checkAllOps(t, e, "s", -64, n+64, 100)
			for q := 0; q < 40; q++ {
				startT := int64(rng.Intn(n)) - 32
				endT := startT + int64(rng.Intn(n))
				window := int64(1 + rng.Intn(300))
				checkAllOps(t, e, "s", startT, endT, window)
			}
			// Unflushed tail: memtable points must block stats answers
			// for chunks they overlap, not corrupt them.
			if err := e.Insert("s", int64(n/4), 9999.5); err != nil {
				t.Fatal(err)
			}
			checkAllOps(t, e, "s", 0, n, 64)

			checkBound := func(when string) {
				t.Helper()
				if di != 0 {
					return
				}
				// The in-order scenario must actually exercise the
				// pushdown, or this whole test is vacuous. No overwrite
				// reached the upper half, where each block holds one
				// 64-tick window: windowed there, the pushdown must
				// decode at least 10x fewer points than the decode-all
				// oracle and still agree with it.
				lo, hi := int64(n/2+63)/64*64, int64(n)/64*64
				s0 := e.Stats()
				got, err := e.AggregateWindows("s", lo, hi, 64, winagg.Avg)
				if err != nil {
					t.Fatal(err)
				}
				skipped := e.Stats().PointsSkipped - s0.PointsSkipped
				if want := oracleWindows(t, e, "s", lo, hi, 64, winagg.Avg); !sameWindows(got, want) {
					t.Fatalf("%s: pushdown %v != oracle %v", when, got, want)
				}
				all := hi - lo // in order: one point per tick
				if decoded := all - skipped; decoded*10 > all {
					t.Fatalf("%s: pushdown decoded %d of %d points, want at least 10x fewer", when, decoded, all)
				}
			}
			// As served: automatic passes have merged the late
			// rewrites with the sequence tail.
			checkBound("live store")

			// Fold the store and check everything again.
			if err := e.Compact(); err != nil {
				t.Fatal(err)
			}
			checkAllOps(t, e, "s", -64, n+64, 100)
			checkAllOps(t, e, "s", 0, n, 64)
			checkBound("after Compact")
		})
	}
}

// TestAggregateWindowsGuards pins the argument contract shared with
// query.WindowQuery.
func TestAggregateWindowsGuards(t *testing.T) {
	e := openTest(t, Config{})
	if err := e.Insert("s", 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AggregateWindows("s", 0, 10, 0, winagg.Sum); err == nil {
		t.Fatal("window=0 accepted")
	}
	if _, err := e.AggregateWindows("s", 0, 10, 5, winagg.Op(99)); err == nil {
		t.Fatal("bogus op accepted")
	}
	for _, endT := range []int64{0, -5} {
		ws, err := e.AggregateWindows("s", 0, endT, 5, winagg.Sum)
		if err != nil || ws != nil {
			t.Fatalf("empty range [0,%d): got %v, %v", endT, ws, err)
		}
	}
}

// TestAggregateAnswersBlockInOlderGap: an older file's one block holds
// records at 0 and 1000 only; a newer file's chunk holds 128 points in
// 64-point blocks inside that gap. No record of the older block lies
// in the newer first block's range, so with windows of 500 that block
// is answered from its statistics; the second block straddles a
// window edge and the older block overlaps the newer chunk, so both
// are decoded. A check of whole block ranges against each other would
// decode all three.
func TestAggregateAnswersBlockInOlderGap(t *testing.T) {
	e := openTest(t, Config{MemTableSize: 1 << 20, blockPoints: 64, l0CompactFiles: 100})
	for _, ts := range []int64{0, 1000} {
		if err := e.Insert("s", ts, float64(ts)/1024); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	for ts := int64(400); ts < 528; ts++ {
		if err := e.Insert("s", ts, float64(ts%97)/1024); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	if e.FileCount() != 2 {
		t.Fatalf("store holds %d files, want 2", e.FileCount())
	}
	s0 := e.Stats()
	got, err := e.AggregateWindows("s", 0, 1500, 500, winagg.Sum)
	if err != nil {
		t.Fatal(err)
	}
	s1 := e.Stats()
	if fromStats, chunks, decoded := s1.BlocksFromStats-s0.BlocksFromStats, s1.ChunksFromStats-s0.ChunksFromStats, s1.BlocksDecoded-s0.BlocksDecoded; fromStats != 1 || chunks != 0 || decoded != 2 {
		t.Fatalf("answered %d blocks and %d chunks from statistics and decoded %d blocks, want 1, 0 and 2", fromStats, chunks, decoded)
	}
	if want := oracleWindows(t, e, "s", 0, 1500, 500, winagg.Sum); !sameWindows(got, want) {
		t.Fatalf("pushdown %v != oracle %v", got, want)
	}
	checkAllOps(t, e, "s", 0, 1500, 500)
}
