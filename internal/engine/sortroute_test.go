package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/dataset"
	"repro/internal/tvlist"
)

// oooSeries builds an out-of-order batch under the paper's delay
// model: generation timestamps are a distinct 10-tick grid, each point
// is delayed by up to maxLate ticks with probability 0.3, and the
// batch is emitted in arrival order. Randomized delays matter twice
// over: a strictly periodic pattern phase-aliases the stride-L
// estimator (the bias satellite tests cover in internal/inversion),
// and distinct timestamps keep equal-time tie order from differing
// between sort paths. Values are a pure function of the timestamp so
// result comparisons catch any pairing mistake.
func oooSeries(start int64, n int, maxLate int64, r *rand.Rand) ([]int64, []float64) {
	return oooSeriesBand(start, n, 1, maxLate, r)
}

// oooSeriesBand is oooSeries with delays drawn from [minLate, maxLate]
// instead of [1, maxLate]. A narrow band gives the delay distribution
// a sharp cliff, so the block-size search lands on the same L every
// flush — what the stability tests need.
func oooSeriesBand(start int64, n int, minLate, maxLate int64, r *rand.Rand) ([]int64, []float64) {
	type pt struct{ gen, arr int64 }
	pts := make([]pt, n)
	for i := range pts {
		gen := start + int64(i)*10
		arr := gen
		if maxLate > 0 && r.Float64() < 0.3 {
			arr += minLate + r.Int63n(maxLate-minLate+1)
		}
		pts[i] = pt{gen, arr}
	}
	sort.SliceStable(pts, func(a, b int) bool { return pts[a].arr < pts[b].arr })
	ts := make([]int64, n)
	vs := make([]float64, n)
	for i, p := range pts {
		ts[i] = p.gen
		vs[i] = float64(p.gen % 1009)
	}
	return ts, vs
}

// plannerCounters returns the six planner counters of a snapshot.
func plannerCounters(s Stats) [6]int64 {
	return [6]int64{s.SketchSeededFlushes, s.SearchItersSaved, s.AdaptiveFixedSorts,
		s.AdaptiveSeededSorts, s.AdaptiveMinL, s.AdaptiveMaxL}
}

// TestSortRouting pins the engine's one kernel rule: with a planner
// (algorithm "backward" outside the paper profile) every sort, flush
// and query side alike and however clean or short the chunk, takes the
// flat kernel; without one every sort takes the interface.
func TestSortRouting(t *testing.T) {
	// dirty feeds 5 generations of 500 heavily disordered points.
	dirty := func(t *testing.T, e *Engine) {
		r := rand.New(rand.NewSource(3))
		for g := 0; g < 5; g++ {
			ts, vs := oooSeries(int64(g)*1_000_000, 500, 2000, r)
			if err := e.InsertBatch("s", ts, vs); err != nil {
				t.Fatal(err)
			}
		}
	}
	// nearClean feeds 3 generations of 1000 points with one inversion
	// each: disorder 1/1000.
	nearClean := func(t *testing.T, e *Engine) {
		for g := 0; g < 3; g++ {
			ts := make([]int64, 1000)
			vs := make([]float64, 1000)
			for i := range ts {
				ts[i] = int64(g*1000+i) * 10
			}
			ts[500], ts[501] = ts[501], ts[500]
			if err := e.InsertBatch("s", ts, vs); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		feed func(*testing.T, *Engine)
		flat bool // every sort took the flat kernel; false: the interface
	}{
		{"default/dirty-500", Config{MemTableSize: 500}, dirty, true},
		{"default/near-clean-1000", Config{MemTableSize: 1000}, nearClean, true},
		{"tim", Config{MemTableSize: 500, Algorithm: "tim"}, dirty, false},
		{"paper-profile", Config{MemTableSize: 500, PaperProfile: true}, dirty, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := openTest(t, tc.cfg)
			tc.feed(t, e)
			out, err := e.Query("s", -1<<62, 1<<62)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(out); i++ {
				if out[i-1].T >= out[i].T {
					t.Fatalf("query result out of order at %d", i)
				}
			}
			st := e.Stats()
			if (st.FlatSorts > 0) != tc.flat || (st.InterfaceSorts > 0) == tc.flat {
				t.Fatalf("kernels: %d flat, %d interface sorts; want only flat=%v",
					st.FlatSorts, st.InterfaceSorts, tc.flat)
			}
			if e.planner != nil {
				return
			}
			if c := plannerCounters(st); c != [6]int64{} {
				t.Fatalf("engine without a planner reports planner activity: %v", c)
			}
			if err := e.Insert("s", 1<<40, 1); err != nil {
				t.Fatal(err)
			}
			if _, ok := e.working.Sketch("s"); ok {
				t.Fatal("engine without a planner allocated a disorder sketch")
			}
		})
	}
}

// TestWorkingChunkLayout: a serving engine stores every working chunk,
// sequence and unsequence, as one contiguous array that the flat
// kernel sorts in place; the paper profile keeps IoTDB's List<Array>
// of tvlist.DefaultArrayLen.
func TestWorkingChunkLayout(t *testing.T) {
	const n = 3*tvlist.DefaultArrayLen + 5
	for _, tc := range []struct {
		name   string
		paper  bool
		arrays int
	}{{"serving", false, 1}, {"paper-profile", true, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			e := openTest(t, Config{MemTableSize: 1 << 20, PaperProfile: tc.paper})
			r := rand.New(rand.NewSource(9))
			for _, start := range []int64{1_000_000, 2_000_000, 0} {
				ts, vs := oooSeries(start, n, 50, r)
				if err := e.InsertBatch("s", ts, vs); err != nil {
					t.Fatal(err)
				}
				if start == 1_000_000 {
					e.Flush()
				}
			}
			e.mu.Lock()
			seq, unseq := e.working.Chunk("s"), e.workingUn.Chunk("s")
			e.mu.Unlock()
			for _, c := range []*tvlist.TVList[float64]{seq, unseq} {
				if c.Len() != n || c.MemoryArrays() != tc.arrays {
					t.Fatalf("working chunk holds %d points in %d arrays, want %d in %d",
						c.Len(), c.MemoryArrays(), n, tc.arrays)
				}
			}
			out, err := e.Query("s", -1<<62, 1<<62)
			if err != nil || len(out) != 3*n {
				t.Fatalf("query returned %d points (err %v), want %d", len(out), err, 3*n)
			}
		})
	}
}

// TestQuerySortsAreRouted: query-side sorts follow the same rule as
// flush sorts. A query over a dirty sequence working chunk takes the
// flat kernel, and so does one over an unsequence working chunk.
func TestQuerySortsAreRouted(t *testing.T) {
	e := openTest(t, Config{MemTableSize: 1 << 20})
	r := rand.New(rand.NewSource(5))
	ts, vs := oooSeries(1_000_000, 500, 2000, r)
	if err := e.InsertBatch("s", ts, vs); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	// A query sorts snapshots, so every query re-sorts every dirty
	// working chunk: one after the sequence insert, two after the
	// unsequence one.
	for i, tc := range []struct {
		name  string
		start int64 // above the flushed watermark: sequence; below: unsequence
	}{{"sequence", 2_000_000}, {"unsequence", 0}} {
		ts, vs := oooSeries(tc.start, 500, 2000, r)
		if err := e.InsertBatch("s", ts, vs); err != nil {
			t.Fatal(err)
		}
		before := e.Stats()
		if _, err := e.Query("s", -1<<62, 1<<62); err != nil {
			t.Fatal(err)
		}
		after := e.Stats()
		if after.FlatSorts != before.FlatSorts+int64(i)+1 || after.InterfaceSorts != before.InterfaceSorts {
			t.Fatalf("after the %s insert: query sorted %d flat, %d interface; want %d flat",
				tc.name, after.FlatSorts-before.FlatSorts, after.InterfaceSorts-before.InterfaceSorts, i+1)
		}
	}
	if st := e.Stats(); st.UnseqPoints != 500 {
		t.Fatalf("separation policy diverted %d points, want 500", st.UnseqPoints)
	}
}

// TestPlannedMatchesPaperProfile is the planner's correctness gate.
// The paper profile sorts every chunk through the core.Sortable
// interface with the registry algorithm — the reference
// implementation. With heterogeneous per-sensor disorder, backfill
// and many flush generations, a default engine must return exactly
// the same query results, mid-generation and at the end: the planner
// may only change how sorts run, never what they produce.
func TestPlannedMatchesPaperProfile(t *testing.T) {
	open := func(paper bool) *Engine {
		return openTest(t, Config{
			MemTableSize: 1 << 20, // flushes forced explicitly
			PaperProfile: paper,
		})
	}
	planned, paper := open(false), open(true)
	both := []*Engine{planned, paper}
	same := func(sensor string) {
		t.Helper()
		a, err := planned.Query(sensor, -1_000_000, 100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := paper.Query(sensor, -1_000_000, 100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: planned returned %d records, paper profile %d", sensor, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: record %d differs: planned %+v paper profile %+v", sensor, i, a[i], b[i])
			}
		}
	}

	r := rand.New(rand.NewSource(11))
	sensors := []struct {
		name string
		late int64
		n    int // 0 = random 500..2000
	}{
		{"clean", 0, 0}, {"mild", 15, 0}, {"heavy", 2000, 0},
		{"extreme", 50000, 0}, {"short", 15, 20},
	}
	for round := 0; round < 6; round++ {
		for _, sc := range sensors {
			n := sc.n
			if n == 0 {
				n = 500 + r.Intn(1500)
			}
			ts, vs := oooSeries(int64(round)*1_000_000, n, sc.late, r)
			for _, e := range both {
				if err := e.InsertBatch(sc.name, ts, vs); err != nil {
					t.Fatal(err)
				}
			}
		}
		if round > 0 {
			// Backfill behind the flushed watermark, on timestamps the
			// grid above never uses: an unsequence chunk.
			ts, vs := oooSeries(int64(round-1)*1_000_000+5, 300, 2000, r)
			for _, e := range both {
				if err := e.InsertBatch("heavy", ts, vs); err != nil {
					t.Fatal(err)
				}
			}
		}
		same("heavy") // query-side sorts of the working chunks
		for _, e := range both {
			e.Flush()
		}
	}
	for _, sc := range sensors {
		same(sc.name)
	}

	s := planned.Stats()
	if s.UnseqPoints != 5*300 {
		t.Fatalf("backfill diverted %d points to the unsequence path, want %d", s.UnseqPoints, 5*300)
	}
	if s.SketchSeededFlushes == 0 {
		t.Fatalf("no sketch-seeded flushes after 6 rounds: %+v", s)
	}
	if s.SearchItersSaved == 0 {
		t.Fatalf("no search iterations saved after 6 stationary rounds: %+v", s)
	}
	if s.AdaptiveMinL <= 0 || s.AdaptiveMaxL < s.AdaptiveMinL {
		t.Fatalf("chosen-L range [%d, %d] malformed", s.AdaptiveMinL, s.AdaptiveMaxL)
	}
	// Heterogeneous lateness must spread the chosen block sizes: the
	// "extreme" sensor needs a far larger L than the "mild" one.
	if s.AdaptiveMaxL <= s.AdaptiveMinL {
		t.Fatalf("chosen-L histogram is flat [%d, %d] despite 4 disorder profiles",
			s.AdaptiveMinL, s.AdaptiveMaxL)
	}
	if ps := paper.Stats(); ps.FlatSorts != 0 || plannerCounters(ps) != [6]int64{} {
		t.Fatalf("paper-profile engine left the interface path: %+v", ps)
	}
}

// TestPlannerPinsStationarySensor drives one stationary sensor through
// enough generations that the planner pins the block size and skips
// the search outright — with and without random backfill arriving for
// the same sensor every generation. The backfill lands in unsequence
// chunks, which must not share the sequence chunk's planner state:
// folding their unrelated disorder into it, and alternating their
// search results with its own, keeps the sensor from ever pinning.
func TestPlannerPinsStationarySensor(t *testing.T) {
	for _, backfill := range []bool{false, true} {
		t.Run(fmt.Sprintf("backfill=%v", backfill), func(t *testing.T) {
			e := openTest(t, Config{MemTableSize: 1 << 20})
			r := rand.New(rand.NewSource(7))
			// One flush establishes L, StableRuns more confirm it, the
			// next one is pinned.
			for round := 0; round < adaptive.StableRuns+2; round++ {
				// Delays banded in [900, 1000) ticks: α̃ is decisively
				// above Θ at L=64 and exactly zero at L=128, so every
				// search confirms the same block size.
				ts, vs := oooSeriesBand(int64(round)*1_000_000, 2000, 900, 999, r)
				if err := e.InsertBatch("s", ts, vs); err != nil {
					t.Fatal(err)
				}
				if backfill && round > 0 {
					// Far behind the flushed watermark, in random order.
					ts, vs := oooSeries(int64(round-1)*1_000_000-500_000, 2500, 1_000_000, r)
					if err := e.InsertBatch("s", ts, vs); err != nil {
						t.Fatal(err)
					}
				}
				e.Flush()
			}
			s := e.Stats()
			if backfill == (s.UnseqPoints == 0) {
				t.Fatalf("unsequence points = %d with backfill=%v", s.UnseqPoints, backfill)
			}
			if s.AdaptiveFixedSorts == 0 {
				t.Fatalf("planner never pinned L on a stationary sensor: %+v", s)
			}
			if s.AdaptiveSeededSorts == 0 {
				t.Fatalf("planner never ran a seeded search: %+v", s)
			}
		})
	}
}

// TestPlannerEngagesOnDriftingFleet: on a fleet mixing the three
// drifting scenarios — clock skew stepping in and out, Pareto outage
// backlogs, slowly saturating mixtures, one sensor at four times the
// rate so flush chunks differ in size — the planner must actually
// steer: sketches inform flushes, seeding shortcuts searches, and the
// stretches between distribution shifts are stable enough to pin.
func TestPlannerEngagesOnDriftingFleet(t *testing.T) {
	const points, batch = 60000, 500
	fleet := []struct {
		series *dataset.Series
		rate   int
	}{
		{dataset.DriftClockSkew(points, 40), 1},
		{dataset.ParetoBursts(points, 41), 1},
		{dataset.ParetoBursts(points, 42), 1},
		{dataset.DriftMixture(points, 43), 1},
		{dataset.DriftMixture(points, 44), 1},
		{dataset.DriftMixture(points*4, 45), 4},
	}
	// 8000 points across 6 sensors puts per-sensor flush chunks near
	// 1300 points, below every scenario's late-segment delay envelope.
	e := openTest(t, Config{MemTableSize: 8000, FlushWorkers: 1})
	for off := 0; off < points; off += batch {
		for i, s := range fleet {
			lo, hi := off*s.rate, (off+batch)*s.rate
			if err := e.InsertBatch(fmt.Sprintf("s%d", i), s.series.Times[lo:hi], s.series.Values[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Flush()
	s := e.Stats()
	if s.SketchSeededFlushes == 0 || s.SearchItersSaved == 0 || s.AdaptiveFixedSorts == 0 {
		t.Fatalf("planner did not engage: %d sketch-seeded flushes, %d search iterations saved, %d pinned sorts",
			s.SketchSeededFlushes, s.SearchItersSaved, s.AdaptiveFixedSorts)
	}
}

// TestAdaptiveSketchStress is the -race gate for the planner's shared
// state: concurrent inserters, flushers, queriers and a sketch reader
// hammer one engine; every sketch snapshot observed mid-run —
// working and mid-flush generations alike — must report a disorder
// estimate in [0, 1], and the post-flush working memtable must start
// with fresh sketch state.
func TestAdaptiveSketchStress(t *testing.T) {
	e, err := Open(Config{
		Dir:          t.TempDir(),
		MemTableSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, writers+2)

	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			sensor := fmt.Sprintf("s%d", w)
			r := rand.New(rand.NewSource(int64(w)))
			for base := int64(0); ; base += 256 {
				select {
				case <-stop:
					return
				default:
				}
				ts, vs := oooSeries(base*10, 256, int64(1+r.Intn(5000)), r)
				if err := e.InsertBatch(sensor, ts, vs); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.Flush()
			if _, err := e.Query("s0", 0, 1<<40); err != nil {
				errc <- err
				return
			}
		}
	}()
	// The sketch reader: snapshots every live generation's sketches
	// under the engine lock — exactly what the planner does mid-flush —
	// and checks the estimates stay in range.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.mu.Lock()
			for w := 0; w < writers; w++ {
				sensor := fmt.Sprintf("s%d", w)
				if sk, ok := e.working.Sketch(sensor); ok {
					if f := sk.DisorderFraction(); f < 0 || f > 1 {
						errc <- fmt.Errorf("working sketch %s disorder %g out of [0,1]", sensor, f)
					}
				}
				for _, unit := range e.flushing {
					if sk, ok := unit.seq.Sketch(sensor); ok {
						if f := sk.DisorderFraction(); f < 0 || f > 1 {
							errc <- fmt.Errorf("mid-flush sketch %s disorder %g out of [0,1]", sensor, f)
						}
					}
				}
			}
			e.mu.Unlock()
		}
	}()

	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	select {
	case err := <-errc:
		close(stop)
		<-wgDone
		t.Fatal(err)
	case <-time.After(2 * time.Second):
		close(stop)
		<-wgDone
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Reset-on-rotation: after a final flush the fresh working memtable
	// must carry no sketch state for any sensor until new writes land.
	e.Flush()
	e.WaitFlushes()
	e.mu.Lock()
	for w := 0; w < writers; w++ {
		sensor := fmt.Sprintf("s%d", w)
		if sk, ok := e.working.Sketch(sensor); ok && sk.N != 0 {
			e.mu.Unlock()
			t.Fatalf("sketch state leaked across flush rotation: %s has N=%d", sensor, sk.N)
		}
	}
	e.mu.Unlock()
	if err := e.Insert("s0", 1<<41, 1); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	sk, ok := e.working.Sketch("s0")
	e.mu.Unlock()
	if !ok || sk.N != 1 || sk.OOO != 0 {
		t.Fatalf("fresh sketch after rotation should be N=1 OOO=0, got %+v ok=%v", sk, ok)
	}
}
