package shard

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/labels"
	"repro/internal/query"
	"repro/internal/tsfile"
)

func openLabelRouter(t *testing.T, dir string, shards int) *Router {
	t.Helper()
	r, err := Open(Config{
		Config:     engine.Config{Dir: dir, MemTableSize: 512},
		ShardCount: shards,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return r
}

// TestCanonicalRouting is the regression for sorted-pair routing:
// the same pairs in any insertion order hash to the same shard,
// because routing consumes the canonical encoding, never the input
// order.
func TestCanonicalRouting(t *testing.T) {
	ab := labels.MustNew(labels.Label{Name: "a", Value: "1"}, labels.Label{Name: "b", Value: "2"})
	ba := labels.MustNew(labels.Label{Name: "b", Value: "2"}, labels.Label{Name: "a", Value: "1"})
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		if Index(ab.Canonical(), n) != Index(ba.Canonical(), n) {
			t.Fatalf("n=%d: {a=1,b=2} and {b=2,a=1} routed to different shards", n)
		}
	}
	// And the canonical hash is the router hash: Set.Hash mod n must
	// agree with Index over the canonical string.
	if int(ab.Hash()%4) != Index(ab.Canonical(), 4) {
		t.Fatal("labels.Set.Hash disagrees with shard.Index over the canonical encoding")
	}

	// End to end: points inserted under either order are one series.
	r := openLabelRouter(t, t.TempDir(), 4)
	defer r.Close()
	if err := r.InsertSeries(ab, []int64{1, 2}, []float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	if err := r.InsertSeries(ba, []int64{3}, []float64{30}); err != nil {
		t.Fatal(err)
	}
	if n := r.SeriesCount(); n != 1 {
		t.Fatalf("SeriesCount = %d, want 1 (orders collapsed)", n)
	}
	sp, err := r.QuerySeries(nil, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp) != 1 || len(sp[0].Points) != 3 {
		t.Fatalf("merged series query: %+v", sp)
	}

	// A label set whose encoding no chunk file can store as a sensor
	// name is refused before it registers.
	long := labels.MustNew(labels.Label{Name: "host", Value: strings.Repeat("h", tsfile.MaxSensorName)})
	if err := r.InsertSeries(long, []int64{1}, []float64{1}); err == nil {
		t.Fatal("over-long label set accepted")
	}
	if n := r.SeriesCount(); n != 1 {
		t.Fatalf("SeriesCount = %d after the refused insert, want 1", n)
	}
}

// seed1000 registers and fills 50 hosts × 20 metrics = 1000 series.
func seed1000(t *testing.T, r *Router) map[string][]engine.TV {
	t.Helper()
	oracle := map[string][]engine.TV{}
	for h := 0; h < 50; h++ {
		for m := 0; m < 20; m++ {
			ls := labels.MustNew(
				labels.Label{Name: "host", Value: fmt.Sprintf("h%02d", h)},
				labels.Label{Name: "metric", Value: fmt.Sprintf("m%02d", m)},
			)
			times := make([]int64, 8)
			values := make([]float64, 8)
			pts := make([]engine.TV, 8)
			for i := range times {
				times[i] = int64(i * 10)
				values[i] = float64(h*1000 + m*10 + i)
				pts[i] = engine.TV{T: times[i], V: values[i]}
			}
			if err := r.InsertSeries(ls, times, values); err != nil {
				t.Fatal(err)
			}
			oracle[ls.Canonical()] = pts
		}
	}
	return oracle
}

// TestSelectorFanoutMatchesOracle is the acceptance-criteria test: a
// selector over 1000 series resolves via postings intersection, fans
// out across shards in parallel, and returns byte-identical results to
// a per-sensor oracle loop.
func TestSelectorFanoutMatchesOracle(t *testing.T) {
	r := openLabelRouter(t, t.TempDir(), 4)
	defer r.Close()
	oracle := seed1000(t, r)
	if n := r.SeriesCount(); n != 1000 {
		t.Fatalf("SeriesCount = %d, want 1000", n)
	}

	for _, tc := range []struct {
		name string
		ms   []*labels.Matcher
		want int // matching series
	}{
		{"all", nil, 1000},
		{"one-host", []*labels.Matcher{labels.MustMatcher(labels.MatchEq, "host", "h07")}, 20},
		{"regex-hosts", []*labels.Matcher{labels.MustMatcher(labels.MatchRe, "host", "h0.")}, 200},
		{"host-and-metric", []*labels.Matcher{
			labels.MustMatcher(labels.MatchRe, "host", "h1[0-4]"),
			labels.MustMatcher(labels.MatchEq, "metric", "m03"),
		}, 5},
		{"not-host", []*labels.Matcher{labels.MustMatcher(labels.MatchNotEq, "host", "h00")}, 980},
		{"nothing", []*labels.Matcher{labels.MustMatcher(labels.MatchEq, "host", "absent")}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := r.QuerySeries(tc.ms, 0, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tc.want {
				t.Fatalf("selected %d series, want %d", len(got), tc.want)
			}
			// Oracle: re-run every selected series as a single-sensor
			// query, and independently verify the selection itself by
			// scanning the oracle keys through the matchers.
			matched := 0
			for canonical := range oracle {
				ls, err := labels.ParseCanonical(canonical)
				if err != nil {
					t.Fatal(err)
				}
				ok := true
				for _, m := range tc.ms {
					if !m.Matches(ls.Get(m.Name)) {
						ok = false
						break
					}
				}
				if ok {
					matched++
				}
			}
			if matched != tc.want {
				t.Fatalf("oracle scan matched %d, want %d", matched, tc.want)
			}
			for _, sp := range got {
				single, err := r.Query(sp.Labels.Canonical(), 0, 1000)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sp.Points, single) {
					t.Fatalf("series %s: fan-out result differs from single query", sp.Labels)
				}
				if !reflect.DeepEqual(sp.Points, oracle[sp.Labels.Canonical()]) {
					t.Fatalf("series %s: result differs from oracle points", sp.Labels)
				}
			}
		})
	}

	// Cross-series sum over one host's 20 series, in one window, equals
	// the total of the values seed1000 wrote.
	wins, err := r.AggregateSeriesGroup(
		[]*labels.Matcher{labels.MustMatcher(labels.MatchEq, "host", "h03")}, 0, 80, 80, query.Sum)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for m := 0; m < 20; m++ {
		for i := 0; i < 8; i++ {
			want += float64(3*1000 + m*10 + i)
		}
	}
	if len(wins) != 1 || wins[0].Value != want || wins[0].Count != 20*8 {
		t.Fatalf("cross-series sum %+v, want value %v count %d", wins, want, 20*8)
	}

	st, per := r.StatsAll()
	if st.SeriesCount != 1000 || st.SelectorQueries == 0 || st.MaxFanoutWidth != 1000 {
		t.Fatalf("index stats not surfaced: %+v", st)
	}
	for i, s := range per { // the index is store-level: shards report none of it
		if s.SeriesCount != 0 || s.SelectorQueries != 0 {
			t.Fatalf("shard %d carries store-level index counters: %+v", i, s)
		}
	}
	if st.MatcherResolutions == 0 || st.PostingsEntries != 2000 || st.LabelPairs != 70 {
		t.Fatalf("postings stats wrong: pairs=%d entries=%d resolutions=%d",
			st.LabelPairs, st.PostingsEntries, st.MatcherResolutions)
	}
}

// TestSeriesSurviveRestart: series IDs and postings come back from the
// catalog after a close/reopen, and selectors resolve identically.
func TestSeriesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	r := openLabelRouter(t, dir, 4)
	seed1000(t, r)
	wantIDs := r.SelectSeries([]*labels.Matcher{labels.MustMatcher(labels.MatchEq, "metric", "m05")})
	if len(wantIDs) != 50 {
		t.Fatalf("pre-restart selection: %d series", len(wantIDs))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := openLabelRouter(t, dir, 4)
	defer r2.Close()
	if n := r2.SeriesCount(); n != 1000 {
		t.Fatalf("replayed %d series, want 1000", n)
	}
	gotIDs := r2.SelectSeries([]*labels.Matcher{labels.MustMatcher(labels.MatchEq, "metric", "m05")})
	if !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Fatalf("selection changed across restart:\n  was %v\n  now %v", wantIDs, gotIDs)
	}
	// A known series keeps its labels under the same ID.
	ls, ok := r2.SeriesLabels(wantIDs[0])
	if !ok || ls.Get("metric") != "m05" {
		t.Fatalf("series %d labels after restart: %v ok=%v", wantIDs[0], ls, ok)
	}
	// And data is still addressable through the selector path.
	sp, err := r2.QuerySeries([]*labels.Matcher{
		labels.MustMatcher(labels.MatchEq, "host", "h03"),
		labels.MustMatcher(labels.MatchEq, "metric", "m05"),
	}, 0, 1000)
	if err != nil || len(sp) != 1 || len(sp[0].Points) != 8 {
		t.Fatalf("post-restart selector query: %v err=%v", sp, err)
	}
}

// TestAggregateSeriesGroup checks the cross-series merge against a
// hand-computed result.
func TestAggregateSeriesGroup(t *testing.T) {
	r := openLabelRouter(t, t.TempDir(), 2)
	defer r.Close()
	mk := func(host string) labels.Set {
		return labels.MustNew(
			labels.Label{Name: "host", Value: host},
			labels.Label{Name: "metric", Value: "cpu"},
		)
	}
	// host a: windows [0,10) -> 1,2 ; [10,20) -> 3
	if err := r.InsertSeries(mk("a"), []int64{0, 5, 10}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// host b: windows [0,10) -> 10 ; [20,30) -> 20
	if err := r.InsertSeries(mk("b"), []int64{2, 20}, []float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	ms := []*labels.Matcher{labels.MustMatcher(labels.MatchEq, "metric", "cpu")}

	sum, err := r.AggregateSeriesGroup(ms, 0, 30, 10, query.Sum)
	if err != nil {
		t.Fatal(err)
	}
	wantSum := []query.WindowResult{
		{Start: 0, Count: 3, Value: 13},
		{Start: 10, Count: 1, Value: 3},
		{Start: 20, Count: 1, Value: 20},
	}
	if !reflect.DeepEqual(sum, wantSum) {
		t.Fatalf("group sum = %+v, want %+v", sum, wantSum)
	}

	avg, err := r.AggregateSeriesGroup(ms, 0, 30, 10, query.Avg)
	if err != nil {
		t.Fatal(err)
	}
	// Window 0: (1+2+10)/3 — weighted, not mean-of-means (1.5+10)/2.
	if avg[0].Value != 13.0/3.0 {
		t.Fatalf("group avg window 0 = %v, want %v", avg[0].Value, 13.0/3.0)
	}

	if _, err := r.AggregateSeriesGroup(ms, 0, 30, 10, query.First); err == nil {
		t.Fatal("First merged across series without error")
	}

	// Per-series view keeps each series separate.
	per, err := r.AggregateSeries(ms, 0, 30, 10, query.Sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(per) != 2 || len(per[0].Windows) != 2 || len(per[1].Windows) != 2 {
		t.Fatalf("per-series windows: %+v", per)
	}
}
