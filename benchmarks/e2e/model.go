package main

import (
	"math"
	"sort"

	"repro/internal/engine"
	"repro/internal/query"
)

// The reference model answers every read the benchmark issues from the
// generated inputs alone: which timestamps a series holds after a
// given number of acknowledged arrivals and applied rewrites, and the
// value the newest write left at each. Point queries are inclusive
// [lo, hi]; aggregations are half-open [start, end), windows anchored
// at start, empty windows omitted.

// state is the point in a series' history a read is checked against.
type state struct {
	acked    int64 // arrivals acknowledged
	rewrites int   // rewrites applied
}

func (s *series) now() state { return state{acked: s.acked, rewrites: len(s.rewrites)} }

// scan calls fn for every timestamp the series holds in [lo, hi] at
// st, in time order, with the value of its newest write.
func (s *series) scan(lo, hi int64, st state, fn func(t int64, v float64)) {
	loTick := max((lo+s.stride-1)/s.stride, 0)
	hiTick := hi / s.stride
	if hi < 0 || hiTick < loTick {
		return
	}
	// Overlay the applied rewrites on the range once instead of
	// searching them per point.
	var add []float64
	for _, rw := range s.rewrites[:st.rewrites] {
		a, b := max(rw.t0, loTick), min(rw.t0+rw.n-1, hiTick)
		if a > b {
			continue
		}
		if add == nil {
			add = make([]float64, hiTick-loTick+1)
		}
		for t := a; t <= b; t++ {
			add[t-loTick] = rw.add
		}
	}
	for t := loTick; t <= hiTick; t++ {
		if !s.written(t, st.acked) {
			continue
		}
		v := s.tickValue(t)
		if add != nil {
			v += add[t-loTick]
		}
		fn(t*s.stride, v)
	}
}

// digest summarises a point result so it can be compared without being
// kept: the count and an order-independent sum of mixed (t, v) pairs.
type digest struct {
	count int
	sum   uint64
}

func (d *digest) add(t int64, v float64) {
	h := uint64(t)*0x9E3779B97F4A7C15 ^ math.Float64bits(v)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	d.count++
	d.sum += h
}

func (s *series) digest(lo, hi int64, st state) digest {
	var d digest
	s.scan(lo, hi, st, d.add)
	return d
}

// digestPoints digests a query result and reports whether it was in
// strictly increasing time order, as every engine result must be.
func digestPoints(pts []engine.TV) (d digest, sorted bool) {
	sorted = true
	for i, p := range pts {
		if i > 0 && p.T <= pts[i-1].T {
			sorted = false
		}
		d.add(p.T, p.V)
	}
	return d, sorted
}

// windows is the model's answer to a windowed average, the only
// aggregate the workloads ask for.
func (s *series) windows(start, end, window int64, st state) []query.WindowResult {
	var out []query.WindowResult
	var count int
	var sum float64
	curStart := int64(math.MinInt64)
	flush := func() {
		if count > 0 {
			out = append(out, query.WindowResult{Start: curStart, Count: count, Value: sum / float64(count)})
		}
	}
	s.scan(start, end-1, st, func(t int64, v float64) {
		if ws := start + (t-start)/window*window; ws != curStart {
			flush()
			count, sum, curStart = 0, 0, ws
		}
		count++
		sum += v
	})
	flush()
	return out
}

// mergedAvg is the model's answer to a cross-series average: per
// window, the point-count-weighted mean of the per-series means, which
// is how the router merges them.
func mergedAvg(members []*series, start, end, window int64) []query.WindowResult {
	type acc struct {
		count int
		sum   float64
	}
	byStart := map[int64]*acc{}
	var order []int64
	for _, s := range members {
		for _, w := range s.windows(start, end, window, s.now()) {
			a := byStart[w.Start]
			if a == nil {
				a = &acc{}
				byStart[w.Start] = a
				order = append(order, w.Start)
			}
			a.count += w.Count
			a.sum += w.Value * float64(w.Count)
		}
	}
	out := make([]query.WindowResult, 0, len(order))
	for _, ws := range order {
		a := byStart[ws]
		out = append(out, query.WindowResult{Start: ws, Count: a.count, Value: a.sum / float64(a.count)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func sameWindows(a, b []query.WindowResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].Count != b[i].Count ||
			math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// hashWindows folds an aggregation result into one number, in order,
// so results can be compared without being kept.
func hashWindows(ws []query.WindowResult) uint64 {
	h := uint64(len(ws))
	for _, w := range ws {
		for _, x := range [...]uint64{uint64(w.Start), uint64(w.Count), math.Float64bits(w.Value)} {
			h = (h ^ x) * 1099511628211
		}
	}
	return h
}
