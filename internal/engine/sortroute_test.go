package engine

import (
	"math/rand"
	"sort"
	"testing"

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
	type pt struct{ gen, arr int64 }
	pts := make([]pt, n)
	for i := range pts {
		gen := start + int64(i)*10
		arr := gen
		if maxLate > 0 && r.Float64() < 0.3 {
			arr += 1 + r.Int63n(maxLate)
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

// TestSortRouting pins the engine's one kernel rule: with algorithm
// "backward" outside the paper profile every sort, flush
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

// TestServingMatchesPaperProfile is the serving sort's correctness
// gate. The paper profile sorts every chunk through the core.Sortable
// interface with the registry algorithm — the reference
// implementation. With heterogeneous per-sensor disorder, backfill
// and many flush generations, a default engine (contiguous chunks,
// flat kernel) must return exactly the same query results,
// mid-generation and at the end.
func TestServingMatchesPaperProfile(t *testing.T) {
	open := func(paper bool) *Engine {
		return openTest(t, Config{
			MemTableSize: 1 << 20, // flushes forced explicitly
			PaperProfile: paper,
		})
	}
	serving, paper := open(false), open(true)
	both := []*Engine{serving, paper}
	same := func(sensor string) {
		t.Helper()
		a, err := serving.Query(sensor, -1_000_000, 100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := paper.Query(sensor, -1_000_000, 100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: serving returned %d records, paper profile %d", sensor, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: record %d differs: serving %+v paper profile %+v", sensor, i, a[i], b[i])
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

	s := serving.Stats()
	if s.UnseqPoints != 5*300 {
		t.Fatalf("backfill diverted %d points to the unsequence path, want %d", s.UnseqPoints, 5*300)
	}
	if s.FlatSorts == 0 || s.InterfaceSorts != 0 {
		t.Fatalf("serving engine sorted %d flat, %d interface; want only flat", s.FlatSorts, s.InterfaceSorts)
	}
	if ps := paper.Stats(); ps.FlatSorts != 0 {
		t.Fatalf("paper-profile engine left the interface path: %+v", ps)
	}
}
