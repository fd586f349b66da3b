package adaptive

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/delay"
)

func TestSketchCleanSeries(t *testing.T) {
	var s Sketch
	for i := int64(0); i < 1000; i++ {
		s.Observe(i * 10)
	}
	sk := s.Snapshot()
	if sk.N != 1000 || sk.OOO != 0 || sk.MaxLate != 0 {
		t.Fatalf("clean series: N=%d OOO=%d MaxLate=%d", sk.N, sk.OOO, sk.MaxLate)
	}
	if f := sk.DisorderFraction(); f != 0 {
		t.Fatalf("clean disorder fraction %g", f)
	}
	if iv := sk.Interval(); iv != 10 {
		t.Fatalf("interval %g, want 10", iv)
	}
}

func TestSketchDisorderCounting(t *testing.T) {
	var s Sketch
	// Every 4th point arrives 25 ticks late: disorder fraction 1/4,
	// max lateness 25.
	for i := int64(0); i < 4000; i++ {
		ts := i * 10
		if i%4 == 3 {
			ts -= 25
		}
		s.Observe(ts)
	}
	sk := s.Snapshot()
	if f := sk.DisorderFraction(); f < 0.24 || f > 0.26 {
		t.Fatalf("disorder fraction %g, want ≈0.25", f)
	}
	// A point written 25 ticks behind its slot trails the running max
	// (set by the previous on-time point) by 15 ticks.
	if sk.MaxLate != 15 {
		t.Fatalf("max lateness %d, want 15", sk.MaxLate)
	}
	if f := sk.DisorderFraction(); f < 0 || f > 1 {
		t.Fatalf("disorder fraction %g out of [0,1]", f)
	}
	// Lateness 15 has bit length 4 → bucket 3 ([8,16)).
	if sk.Late[3] != 1000 {
		t.Fatalf("bucket 3 count %d, want 1000", sk.Late[3])
	}
	s.Reset()
	if got := s.Snapshot(); got.N != 0 || got.OOO != 0 {
		t.Fatalf("reset sketch not zero: %+v", got)
	}
}

// TestSketchPredictionTracksSearch checks the tentpole's core claim:
// the histogram-derived block-size prediction lands near the L the
// paper's actual search picks, across delay shapes.
func TestSketchPredictionTracksSearch(t *testing.T) {
	scenarios := []struct {
		name string
		d    delay.Distribution
	}{
		{"exp2", delay.Exponential{Lambda: 2}},
		{"exp0.05", delay.Exponential{Lambda: 0.05}},
		{"absnormal", delay.AbsNormal{Mu: 1, Sigma: 2}},
		{"lognormal", delay.LogNormal{Mu: 1, Sigma: 2}},
		{"clockskew", delay.ClockSkew{P: 0.3, Skew: 100, Jitter: 2}},
	}
	for _, sc := range scenarios {
		ser := dataset.Generate(sc.name, 200000, sc.d, 7)
		var sk Sketch
		for _, ts := range ser.Times {
			sk.Observe(ts)
		}
		p := NewPlanner()
		var pred int
		for g := 0; g < 3; g++ { // a few generations so decay washes out
			d := p.Plan(sc.name, sk.Snapshot())
			pred = d.FixedL
			if pred == 0 {
				pred = d.SeedL * 2 // seed is half the prediction
			}
		}
		times := append([]int64(nil), ser.Times...)
		tr := core.SortFlat(times, make([]float64, len(times)), core.FlatOptions{})
		searched := tr.BlockSize
		if pred < searched/4 || pred > searched*4 {
			t.Errorf("%s: sketch predicted L=%d, search picked L=%d (want within 4x)",
				sc.name, pred, searched)
		}
	}
}

// snap builds a synthetic snapshot with n points of which ooo arrived
// late by exactly `late` ticks, at unit spacing `interval`.
func snap(n, ooo, late, interval int64) Snapshot {
	var s Snapshot
	s.N = n
	s.OOO = ooo
	s.FirstT = 0
	s.MaxT = (n - 1) * interval
	s.MaxLate = late
	if ooo > 0 {
		b := 0
		for l := late; l > 1; l >>= 1 {
			b++
		}
		if b >= LateBuckets {
			b = LateBuckets - 1
		}
		s.Late[b] = ooo
	}
	return s
}

func TestPlannerStabilizesThenSkips(t *testing.T) {
	p := NewPlanner()
	// Half the points are 200 ticks (= 20 records) late: the search
	// needs L ≈ 32 to clear Θ.
	gen := snap(10000, 5000, 200, 10)

	sawFixed := false
	for flush := 1; flush <= 7; flush++ {
		d := p.Plan("s1", gen)
		if !d.Sketched {
			t.Fatalf("flush %d: decision not sketch-informed", flush)
		}
		if d.FixedL > 0 {
			sawFixed = true
			if d.SavedIterations <= 0 {
				t.Fatalf("flush %d: fixed decision saved %d iterations", flush, d.SavedIterations)
			}
			continue // skipped searches must not feed back
		}
		if d.SeedL <= 0 {
			t.Fatalf("flush %d: neither fixed nor seeded: %+v", flush, d)
		}
		// Simulate the seeded search confirming the prediction.
		p.Observe("s1", d.SeedL*2)
	}
	if !sawFixed {
		t.Fatal("planner never skipped the search on a stationary sensor")
	}
	// Flush 8 is a revalidation turn: the search must actually run.
	d := p.Plan("s1", gen)
	if d.FixedL != 0 || d.SeedL == 0 {
		t.Fatalf("revalidation flush should seed a real search, got %+v", d)
	}
}

func TestPlannerReactsToDrift(t *testing.T) {
	p := NewPlanner()
	calm := snap(10000, 5000, 200, 10) // → modest L
	var lastCalm Decision
	for flush := 1; flush <= 7; flush++ {
		d := p.Plan("s1", calm)
		if d.SeedL > 0 {
			p.Observe("s1", d.SeedL*2)
		}
		lastCalm = d
	}
	if lastCalm.FixedL == 0 {
		t.Fatal("sensor did not stabilize on the calm distribution")
	}
	// The delay distribution drifts: lateness explodes 64x. The
	// prediction moves, so the planner must drop back to a real
	// search rather than keep the pinned L.
	burst := snap(10000, 5000, 12800, 10)
	var reSeeded bool
	for flush := 0; flush < 3; flush++ {
		d := p.Plan("s1", burst)
		if d.SeedL > 0 {
			reSeeded = true
			if d.SeedL*2 <= lastCalm.FixedL {
				t.Fatalf("post-drift seed %d did not move above calm L %d", d.SeedL, lastCalm.FixedL)
			}
			break
		}
	}
	if !reSeeded {
		t.Fatal("planner kept skipping the search after a 64x lateness drift")
	}
}

func TestPlannerColdStart(t *testing.T) {
	p := NewPlanner()
	d := p.Plan("s1", snap(10, 2, 50, 10))
	if d.Sketched || d.FixedL != 0 || d.SeedL != 0 {
		t.Fatalf("10 samples should not inform a decision: %+v", d)
	}
	if d != Unplanned("s1") {
		t.Fatalf("cold-start decision %+v differs from the unplanned default %+v", d, Unplanned("s1"))
	}
}
