package adaptive

import "testing"

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
