package main

import (
	"time"

	"repro/internal/stats"
)

// tailLadder is the fixed set of percentiles a tail metric may report.
var tailLadder = []float64{50, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: below that the value is one or two outliers, not a
// percentile.
const minBeyond = 10

// supportedTail returns the highest ladder percentile, at most want,
// that still has minBeyond of n samples beyond it (the median when n
// supports nothing higher).
func supportedTail(n int, want float64) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if p > want {
			break
		}
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 { // 1e-9: 100-99.9 is not exactly 0.1
			best = p
		}
	}
	return best
}

// samples holds one op class's latencies and the points its ops moved.
type samples struct {
	ms     []float64 // per-op latency, milliseconds
	points int64     // points written, returned or covered by those ops
}

func (s *samples) add(d time.Duration, points int) {
	s.ms = append(s.ms, float64(d)/float64(time.Millisecond))
	s.points += int64(points)
}

func (s *samples) merge(o samples) {
	s.ms = append(s.ms, o.ms...)
	s.points += o.points
}

func (s samples) n() int { return len(s.ms) }

// tail returns the want-th percentile, or the highest lower one the
// sample count supports, and which percentile that was.
func (s samples) tail(want float64) (value, percentile float64) {
	percentile = supportedTail(len(s.ms), want)
	return stats.Percentile(s.ms, percentile), percentile
}

// sumSeconds is the summed latency of the class's ops.
func (s samples) sumSeconds() float64 {
	var sum float64
	for _, v := range s.ms {
		sum += v
	}
	return sum / 1000
}

// pointsPerSecond is points moved per second of summed op time: a
// throughput that ignores the time the generator spent between ops.
func (s samples) pointsPerSecond() float64 {
	if t := s.sumSeconds(); t > 0 {
		return float64(s.points) / t
	}
	return 0
}

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }
