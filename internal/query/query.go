// Package query implements windowed aggregation over time series —
// the downstream analytics the paper motivates sorting with
// (Section VI-E: "computing the average speed of an engine in every
// minute" gives incorrect statistics on disordered data). WindowQuery
// pushes an aggregation down to the store, so the engine answers whole
// chunks from index statistics without decoding them; AggregateWindows
// aggregates a sorted record stream in a single pass and is the oracle
// the pushdown is checked against.
//
// All aggregation ranges in this package are half-open: a query over
// [startT, endT) includes startT and excludes endT. tsql compiles its
// inclusive time predicates to this convention (time <= T becomes
// endT = T+1).
package query

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/winagg"
)

// ErrInvalidArgument tags errors caused by the caller's parameters —
// a non-positive window, an inverted range — as opposed to faults
// inside the storage backend. Front ends branch on it with errors.Is
// to report client mistakes (HTTP 400) separately from server faults
// (HTTP 500).
var ErrInvalidArgument = errors.New("invalid argument")

// Aggregator selects the per-window aggregate function. It aliases
// winagg.Op, the representation shared with the engine's pushdown
// path and the RPC wire encoding.
type Aggregator = winagg.Op

// Supported aggregate functions.
const (
	Count = winagg.Count
	Sum   = winagg.Sum
	Avg   = winagg.Avg
	Min   = winagg.Min
	Max   = winagg.Max
	First = winagg.First
	Last  = winagg.Last
)

// WindowResult is one aggregated window [Start, Start+Width).
type WindowResult = winagg.Window

// AggregateWindows buckets the points into fixed windows
// [startT + k·window, startT + (k+1)·window) for startT <= t < endT
// and aggregates each. Points must be sorted by time (the engine
// guarantees this); out-of-order input returns an error, because
// silently aggregating disordered data is exactly the failure mode the
// paper warns about. Empty windows are omitted.
func AggregateWindows(points []engine.TV, startT, endT, window int64, agg Aggregator) ([]WindowResult, error) {
	if window <= 0 {
		return nil, fmt.Errorf("query: window must be positive, got %d: %w", window, ErrInvalidArgument)
	}
	if endT < startT {
		return nil, fmt.Errorf("query: empty range [%d, %d): %w", startT, endT, ErrInvalidArgument)
	}
	var out []WindowResult
	var cur *WindowResult
	var acc winagg.Acc
	flush := func() {
		if cur != nil {
			cur.Count = acc.Count()
			cur.Value = acc.Result()
			out = append(out, *cur)
		}
	}
	prevT := int64(0)
	for i, p := range points {
		if i > 0 && p.T < prevT {
			return nil, fmt.Errorf("query: input not sorted at index %d (%d after %d)", i, p.T, prevT)
		}
		prevT = p.T
		if p.T < startT || p.T >= endT {
			continue
		}
		ws := winagg.WindowStart(startT, p.T, window)
		if cur == nil || cur.Start != ws {
			flush()
			cur = &WindowResult{Start: ws}
			acc = winagg.Acc{Op: agg}
		}
		acc.AddPoint(p.V)
	}
	flush()
	return out, nil
}

// WindowAggregator is a store that evaluates windowed aggregates
// itself: the engine pushes them down onto chunk statistics, and the
// shard router every server and CLI opens routes to the owning shard.
type WindowAggregator interface {
	AggregateWindows(sensor string, startT, endT, window int64, op winagg.Op) ([]winagg.Window, error)
}

// WindowQuery runs a windowed aggregation on the source — SELECT
// agg(value) FROM sensor WHERE startT <= time < endT GROUP BY window.
// The range is half-open: endT itself is excluded. An empty range
// (endT <= startT... strictly, endT == startT) yields no windows;
// endT < startT is an error, matching AggregateWindows.
//
// The store answers by pushdown; AggregateWindows above is the
// materializing oracle its property tests compare against.
func WindowQuery(e WindowAggregator, sensor string, startT, endT, window int64, agg Aggregator) ([]WindowResult, error) {
	if window <= 0 {
		return nil, fmt.Errorf("query: window must be positive, got %d: %w", window, ErrInvalidArgument)
	}
	if endT < startT {
		return nil, fmt.Errorf("query: empty range [%d, %d): %w", startT, endT, ErrInvalidArgument)
	}
	if endT == startT {
		return nil, nil // an empty range never reaches the store
	}
	return e.AggregateWindows(sensor, startT, endT, window, agg)
}

// MergeWindows folds per-series window results into one cross-series
// result per window start — the reduce step of a selector aggregation
// after the per-series queries fan out across shards. Counts always
// sum; Sum sums values, Count's value is the summed count, Avg is
// re-weighted by per-series point counts (the mean of means would be
// wrong when series contribute unevenly), Min/Max take the extreme.
// First/Last are refused: their cross-series value depends on
// ingestion order inside a window, which the merged form no longer
// carries. Windows empty in every series stay absent; the output is
// ordered by window start.
func MergeWindows(agg Aggregator, perSeries [][]WindowResult) ([]WindowResult, error) {
	type acc struct {
		count int
		sum   float64
		min   float64
		max   float64
	}
	switch agg {
	case Count, Sum, Avg, Min, Max:
	case First, Last:
		return nil, fmt.Errorf("query: %v cannot be merged across series", agg)
	default:
		return nil, fmt.Errorf("query: unknown aggregator %v", agg)
	}
	merged := map[int64]*acc{}
	var starts []int64
	for _, ws := range perSeries {
		for _, w := range ws {
			a, ok := merged[w.Start]
			if !ok {
				a = &acc{min: w.Value, max: w.Value}
				merged[w.Start] = a
				starts = append(starts, w.Start)
			}
			a.count += w.Count
			switch agg {
			case Sum:
				a.sum += w.Value
			case Avg:
				a.sum += w.Value * float64(w.Count)
			case Min:
				if w.Value < a.min {
					a.min = w.Value
				}
			case Max:
				if w.Value > a.max {
					a.max = w.Value
				}
			}
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	out := make([]WindowResult, 0, len(starts))
	for _, s := range starts {
		a := merged[s]
		w := WindowResult{Start: s, Count: a.count}
		switch agg {
		case Count:
			w.Value = float64(a.count)
		case Sum:
			w.Value = a.sum
		case Avg:
			if a.count > 0 {
				w.Value = a.sum / float64(a.count)
			}
		case Min:
			w.Value = a.min
		case Max:
			w.Value = a.max
		}
		out = append(out, w)
	}
	return out, nil
}
