// Package adaptive holds Sketch, an O(1)-per-point online disorder
// sketch of one timestamp stream. The engine no longer uses it: every
// sort chooses its block size by the paper's search (Algorithm 1
// lines 1–8), and no per-sensor disorder state is kept. Sketch stays
// only because the perf ledger's replay (benchmarks/e2e) still
// measures its cost; the next change to the benchmark deletes it and
// this package.
package adaptive

import "math/bits"

// LateBuckets is the size of the power-of-two lateness histogram.
// Bucket i counts points whose lateness (in timestamp ticks) lies in
// [2^i, 2^(i+1)); 41 buckets cover every lateness up to 2^41 ticks —
// beyond a year at millisecond resolution — with the last bucket
// absorbing anything larger.
const LateBuckets = 41

// Sketch is the per-sensor online disorder sketch, updated on every
// insert. It is deliberately tiny and branch-light: one comparison
// against the running max timestamp, and for the out-of-order minority
// one bits.Len64 to bucket the lateness. The sketch carries no
// synchronization of its own: its caller serializes Observe against
// Snapshot.
type Sketch struct {
	n       int64 // points observed
	ooo     int64 // points that arrived behind the running max (t < maxT)
	firstT  int64 // first timestamp observed
	maxT    int64 // running max timestamp
	maxLate int64 // largest lateness observed, in ticks
	late    [LateBuckets]int64
}

// Observe feeds one point's timestamp into the sketch.
func (s *Sketch) Observe(t int64) {
	if s.n == 0 {
		s.n = 1
		s.firstT = t
		s.maxT = t
		return
	}
	s.n++
	if t >= s.maxT {
		s.maxT = t
		return
	}
	late := s.maxT - t // > 0: this point arrived late
	s.ooo++
	if late > s.maxLate {
		s.maxLate = late
	}
	b := bits.Len64(uint64(late)) - 1 // late >= 1 → b >= 0
	if b >= LateBuckets {
		b = LateBuckets - 1
	}
	s.late[b]++
}

// Reset returns the sketch to its zero state, for callers that
// recycle sketch storage.
func (s *Sketch) Reset() { *s = Sketch{} }

// Snapshot returns a value copy of the sketch's counters for reading
// outside the writer's lock.
func (s *Sketch) Snapshot() Snapshot {
	return Snapshot{
		N:       s.n,
		OOO:     s.ooo,
		FirstT:  s.firstT,
		MaxT:    s.maxT,
		MaxLate: s.maxLate,
		Late:    s.late,
	}
}

// Snapshot is an immutable copy of a Sketch's counters.
type Snapshot struct {
	N       int64
	OOO     int64
	FirstT  int64
	MaxT    int64
	MaxLate int64
	Late    [LateBuckets]int64
}

// DisorderFraction is the fraction of observed points that arrived
// behind the running max timestamp — the sketch's estimate of the
// adjacent inversion rate. Always in [0, 1].
func (s Snapshot) DisorderFraction() float64 {
	if s.N <= 0 {
		return 0
	}
	return float64(s.OOO) / float64(s.N)
}

// Interval estimates the sensor's mean inter-arrival spacing in ticks:
// total covered span over points. At least 1 so lateness-to-records
// conversions never divide by zero.
func (s Snapshot) Interval() float64 {
	if s.N < 2 {
		return 1
	}
	iv := float64(s.MaxT-s.FirstT) / float64(s.N-1)
	if iv < 1 {
		iv = 1
	}
	return iv
}
