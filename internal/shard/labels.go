package shard

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/labels"
	"repro/internal/query"
	"repro/internal/tsfile"
)

// Label-series layer: the Router owns the inverted series index
// (Dir/index/catalog.log) and stores each label series under its
// canonical encoding as the engine sensor key. Because Index() is
// FNV-1a over that string — exactly labels.Set.Hash modulo the shard
// count — routing is a pure function of the sorted pair set: {a=1,b=2}
// and {b=2,a=1} canonicalize identically and land on the same shard.
//
// Selector queries resolve matchers to series IDs on the index, then
// fan the per-series range queries out across the shards on a bounded
// worker pool and merge the results per-series (or cross-series for
// windowed aggregates). Flat string sensors bypass all of this: the
// index file is created lazily, so a router that never registers a
// label series is byte-identical on disk to one built before this
// layer existed.

// SeriesPoints is one series' slice of a multi-series query result.
type SeriesPoints struct {
	ID     index.SeriesID
	Labels labels.Set
	Points []engine.TV
}

// SeriesWindows is one series' slice of a multi-series windowed
// aggregation result.
type SeriesWindows struct {
	ID      index.SeriesID
	Labels  labels.Set
	Windows []query.WindowResult
}

// EnsureSeries registers ls in the series index (persisting the
// registration) and returns its stable ID. A label set whose canonical
// encoding is too long to be a sensor name is refused unregistered.
func (r *Router) EnsureSeries(ls labels.Set) (index.SeriesID, error) {
	if n := len(ls.Canonical()); n > tsfile.MaxSensorName {
		return 0, fmt.Errorf("shard: label set encodes to %d bytes, the sensor name limit is %d", n, tsfile.MaxSensorName)
	}
	id, _, err := r.idx.EnsureSeries(ls)
	return id, err
}

// InsertSeries ingests a batch for the label series ls, registering it
// on first sight and routing by the canonical encoding.
func (r *Router) InsertSeries(ls labels.Set, times []int64, values []float64) error {
	if _, err := r.EnsureSeries(ls); err != nil {
		return err
	}
	return r.InsertBatch(ls.Canonical(), times, values)
}

// SeriesCount returns the number of registered label series.
func (r *Router) SeriesCount() int { return r.idx.NumSeries() }

// SeriesLabels returns the label set registered under id.
func (r *Router) SeriesLabels(id index.SeriesID) (labels.Set, bool) { return r.idx.Series(id) }

// SelectSeries resolves a selector to the matching series IDs
// (ascending) via postings intersection, without touching point data.
// An empty matcher list selects every registered series; a selector
// matching nothing returns an empty slice, not an error.
func (r *Router) SelectSeries(ms []*labels.Matcher) []index.SeriesID {
	return r.idx.Select(ms)
}

// IndexStats returns the series-index snapshot.
func (r *Router) IndexStats() index.Stats { return r.idx.Stats() }

// noteFanout records one selector query fanning out over width series.
func (r *Router) noteFanout(width int) {
	r.selectorQueries.Add(1)
	r.fanoutSeries.Add(int64(width))
	for {
		cur := r.maxFanoutWidth.Load()
		if int64(width) <= cur || r.maxFanoutWidth.CompareAndSwap(cur, int64(width)) {
			return
		}
	}
}

// forEachSeries runs f(i, id) for every selected series on a fan-out
// pool of up to GOMAXPROCS workers and returns the first error by
// selection order. The bound is per selector query; concurrent queries
// each get their own.
func (r *Router) forEachSeries(ids []index.SeriesID, f func(i int, id index.SeriesID) error) error {
	r.noteFanout(len(ids))
	workers := max(min(runtime.GOMAXPROCS(0), len(ids)), 1)
	errs := make([]error, len(ids))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i, ids[i])
			}
		}()
	}
	for i := range ids {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// QuerySeries resolves the selector and range-queries every matching
// series in parallel across its shards. Results are ordered by series
// ID (registration order), each series' points sorted by time exactly
// as a single-sensor Query would return them; series with no points in
// range are included with an empty Points slice so the caller sees the
// full selection width.
func (r *Router) QuerySeries(ms []*labels.Matcher, minT, maxT int64) ([]SeriesPoints, error) {
	ids := r.idx.Select(ms)
	out := make([]SeriesPoints, len(ids))
	err := r.forEachSeries(ids, func(i int, id index.SeriesID) error {
		ls, ok := r.idx.Series(id)
		if !ok {
			return fmt.Errorf("shard: series %d vanished from index", id)
		}
		pts, err := r.Query(ls.Canonical(), minT, maxT)
		if err != nil {
			return err
		}
		out[i] = SeriesPoints{ID: id, Labels: ls, Points: pts}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AggregateSeries runs the windowed aggregation per matching series in
// parallel, returning one window list per series ordered by series ID.
// Series with no points in range appear with an empty window list.
func (r *Router) AggregateSeries(ms []*labels.Matcher, startT, endT, window int64, agg query.Aggregator) ([]SeriesWindows, error) {
	ids := r.idx.Select(ms)
	out := make([]SeriesWindows, len(ids))
	err := r.forEachSeries(ids, func(i int, id index.SeriesID) error {
		ls, ok := r.idx.Series(id)
		if !ok {
			return fmt.Errorf("shard: series %d vanished from index", id)
		}
		ws, err := query.WindowQuery(r, ls.Canonical(), startT, endT, window, agg)
		if err != nil {
			return err
		}
		out[i] = SeriesWindows{ID: id, Labels: ls, Windows: ws}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AggregateSeriesGroup runs the windowed aggregation across every
// matching series and merges the per-series windows into one
// cross-series result per window — SELECT agg(value) FROM
// series{...} GROUP BY WINDOW. First/Last cannot be merged across
// series and are refused.
func (r *Router) AggregateSeriesGroup(ms []*labels.Matcher, startT, endT, window int64, agg query.Aggregator) ([]query.WindowResult, error) {
	per, err := r.AggregateSeries(ms, startT, endT, window, agg)
	if err != nil {
		return nil, err
	}
	lists := make([][]query.WindowResult, len(per))
	for i, sw := range per {
		lists[i] = sw.Windows
	}
	return query.MergeWindows(agg, lists)
}

// injectIndexStats injects the router-level index counters into a merged
// engine-shaped snapshot (per-shard snapshots keep zeros: the index is
// store-level, not per-shard).
func (r *Router) injectIndexStats(m *engine.Stats) {
	st := r.idx.Stats()
	m.SeriesCount = st.Series
	m.LabelPairs = st.LabelPairs
	m.PostingsEntries = st.PostingsEntries
	m.MatcherResolutions = st.Resolutions
	m.SelectorQueries = r.selectorQueries.Load()
	m.FanoutSeries = r.fanoutSeries.Load()
	m.MaxFanoutWidth = int(r.maxFanoutWidth.Load())
}

// SortSeriesByCanonical orders a SeriesPoints slice by canonical
// encoding — handy for deterministic text output (tsql, tsbench).
func SortSeriesByCanonical(sp []SeriesPoints) {
	sort.Slice(sp, func(i, j int) bool {
		return sp[i].Labels.Canonical() < sp[j].Labels.Canonical()
	})
}
