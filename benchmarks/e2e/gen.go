package main

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/shard"
)

// val is the value every generated point carries at tick t, before any
// backfill rewrites it: the datasets' signal, slowed down and rounded
// to 1/1024. Sums of such values are exact in float64 whatever order
// they are added in, so the engine's block-statistics sums, its
// decoded sums and the reference model's sums compare bit for bit.
func val(t int64) float64 {
	v := math.Round(dataset.Signal(t*100)*1024) / 1024
	if v == 0 {
		return 0 // never -0: its bits differ from +0's
	}
	return v
}

// stream is one fleet's arrival order: a permutation of the generation
// ticks 0..n-1 as internal/dataset delays them. Writers that need more
// than n points replay it shifted by n ticks per pass, so the disorder
// inside a pass is exactly the generator's.
type stream struct {
	n     int
	times []int64   // times[j] is the tick of the j-th point to arrive
	vals  []float64 // vals[j] = val(times[j])
	valAt []float64 // valAt[t] = val(t), 0 <= t < n
	pos   []int32   // pos[t] is the arrival index of tick t
}

// fleets names the four delay regimes of ingest_ooo, in the order
// devices are dealt to them.
var fleets = []string{"lognormal-1-1", "lognormal-1-4", "absnormal-1-4", "pareto-bursts"}

func newStream(kind string, n int, seed int64) *stream {
	var ds *dataset.Series
	switch kind {
	case "lognormal-1-1":
		ds = dataset.LogNormal(n, 1, 1, seed)
	case "lognormal-1-4":
		ds = dataset.LogNormal(n, 1, 4, seed)
	case "absnormal-1-4":
		ds = dataset.AbsNormal(n, 1, 4, seed)
	case "pareto-bursts":
		ds = dataset.ParetoBursts(n, seed)
	default:
		panic("unknown stream kind " + kind)
	}
	// The datasets space generation timestamps by a fixed step; the
	// benchmark counts in ticks of one generation interval.
	var maxT int64
	for _, t := range ds.Times {
		maxT = max(maxT, t)
	}
	step := maxT / int64(n-1)
	s := &stream{n: n, times: ds.Times, vals: ds.Values, valAt: make([]float64, n), pos: make([]int32, n)}
	for t := range s.valAt {
		s.valAt[t] = val(int64(t))
	}
	for j, t := range s.times {
		t /= step
		s.times[j] = t
		s.vals[j] = s.valAt[t]
		s.pos[t] = int32(j)
	}
	return s
}

// series is one sensor (or label series) of the reference model and,
// at the same time, the definition of what its writers send. Its
// points arrive in a fixed order indexed by k: the first inOrder of
// them carry ticks 0..inOrder-1 in order, the rest follow st, replayed
// pass after pass. A timestamp is tick·stride.
type series struct {
	name    string
	st      *stream   // nil: every point arrives in order
	tab     []float64 // st == nil: val by tick, shared between series
	offset  float64   // st == nil: a whole number added to every value, so series differ
	inOrder int64     // length of the in-order prefix; a multiple of st.n
	stride  int64

	acked    int64     // points acknowledged so far: always a prefix of the arrival order
	rewrites []rewrite // later writes over existing timestamps, in the order they were applied
}

// rewrite is one backfill body's effect on a series: the points at
// ticks [t0, t0+n) were written again with add added to their value.
type rewrite struct {
	t0, n int64
	add   float64
}

// tickValue is the value first written at tick.
func (s *series) tickValue(tick int64) float64 {
	if s.st == nil {
		return s.tab[tick] + s.offset
	}
	return s.st.valAt[tick%int64(s.st.n)]
}

// written reports whether tick is among the first acked arrivals.
func (s *series) written(tick, acked int64) bool {
	if tick < 0 {
		return false
	}
	if s.st == nil || tick < s.inOrder {
		return tick < acked
	}
	k := tick - s.inOrder
	n := int64(s.st.n)
	return s.inOrder+k/n*n+int64(s.st.pos[k%n]) < acked
}

// fill writes the timestamps of arrivals [k, k+len(times)) into times
// and returns their values. The batch must not straddle the end of the
// in-order prefix or of a pass, which holds when both are multiples of
// the batch size. The returned slice may alias the stream.
func (s *series) fill(k int64, times []int64, scratch []float64) []float64 {
	if s.st != nil && k >= s.inOrder {
		n := int64(s.st.n)
		kk := k - s.inOrder
		j := kk % n
		shift := s.inOrder + kk/n*n
		for i := range times {
			times[i] = (shift + s.st.times[j+int64(i)]) * s.stride
		}
		return s.st.vals[j : j+int64(len(times))]
	}
	vals := scratch[:len(times)]
	for i := range times {
		times[i] = (k + int64(i)) * s.stride
		vals[i] = s.tickValue(k + int64(i))
	}
	return vals
}

// lowWater returns, for every count c of acknowledged stream batches
// (batch points each), the tick below which the series is final: no
// arrival after the first c batches carries a smaller tick. Readers
// that query below it get the same answer whenever they ask.
func (s *series) lowWater(batch int) func(acked int64) int64 {
	n := s.st.n
	// suffixMin[b] is the smallest tick among arrivals b·batch.. of one pass.
	suffixMin := make([]int64, n/batch+1)
	suffixMin[n/batch] = int64(n) // the next pass starts at tick n
	for b := n/batch - 1; b >= 0; b-- {
		m := suffixMin[b+1]
		for _, t := range s.st.times[b*batch : (b+1)*batch] {
			m = min(m, t)
		}
		suffixMin[b] = m
	}
	return func(acked int64) int64 {
		if acked < s.inOrder {
			return acked
		}
		k := acked - s.inOrder
		return s.inOrder + k/int64(n)*int64(n) + suffixMin[k%int64(n)/int64(batch)]
	}
}

// balancedNames returns count sensor names that the router's hash
// spreads evenly over the shards, so no run starts with one shard
// holding most of the sensors by accident of naming.
func balancedNames(format string, count, shards int) []string {
	names := make([]string, 0, count)
	for i := 0; len(names) < count; i++ {
		name := fmt.Sprintf(format, i)
		if shard.Index(name, shards) == len(names)%shards {
			names = append(names, name)
		}
	}
	return names
}
