package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
)

func openTest(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.MemTableSize == 0 {
		cfg.MemTableSize = 1000
	}
	cfg.SyncFlush = true
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("missing dir accepted")
	}
	if _, err := Open(Config{Dir: t.TempDir(), Algorithm: "bogus"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	e, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.Algorithm != "backward" {
		t.Fatalf("default algorithm = %q", e.cfg.Algorithm)
	}
	e.Close()
}

func TestInsertQueryInMemory(t *testing.T) {
	e := openTest(t, Config{})
	// Out-of-order inserts, all within the memtable.
	for _, tt := range []int64{5, 3, 8, 1, 9, 2} {
		if err := e.Insert("s", tt, float64(tt)*2); err != nil {
			t.Fatal(err)
		}
	}
	out, err := e.Query("s", 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{2, 3, 5, 8}
	if len(out) != len(want) {
		t.Fatalf("query = %v", out)
	}
	for i, tv := range out {
		if tv.T != want[i] || tv.V != float64(want[i])*2 {
			t.Fatalf("query[%d] = %+v", i, tv)
		}
	}
}

func TestQueryAcrossFlush(t *testing.T) {
	e := openTest(t, Config{MemTableSize: 100})
	total := 1000
	s := dataset.LogNormal(total, 1, 2, 9)
	for i := range s.Times {
		if err := e.Insert("s", s.Times[i], s.Values[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.FlushCount == 0 || st.Files == 0 {
		t.Fatalf("expected flushes, stats: %+v", st)
	}
	out, err := e.Query("s", -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != total {
		t.Fatalf("query returned %d of %d points", len(out), total)
	}
	sorted := append([]int64(nil), s.Times...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, tv := range out {
		if tv.T != sorted[i] {
			t.Fatalf("result %d: time %d, want %d", i, tv.T, sorted[i])
		}
		if tv.V != dataset.Signal(tv.T) {
			t.Fatalf("result %d: value decoupled", i)
		}
	}
}

func TestSeparationPolicy(t *testing.T) {
	e := openTest(t, Config{MemTableSize: 10})
	// Fill and flush with timestamps 0..9.
	for i := 0; i < 10; i++ {
		if err := e.Insert("s", int64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.FlushCount != 1 {
		t.Fatalf("expected 1 flush, got %+v", st)
	}
	// A point older than the flushed watermark must go unsequence.
	if err := e.Insert("s", 4, 40); err != nil {
		t.Fatal(err)
	}
	// A newer point goes sequence.
	if err := e.Insert("s", 100, 100); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.UnseqPoints != 1 {
		t.Fatalf("unseq points = %d, want 1", st.UnseqPoints)
	}
	if st.SeqPoints != 11 {
		t.Fatalf("seq points = %d, want 11", st.SeqPoints)
	}
	// Newest-wins: the rewritten t=4 must return 40, not 4.
	out, err := e.Query("s", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].V != 40 {
		t.Fatalf("rewrite lost: %v", out)
	}
}

func TestQueryDedupAcrossGenerations(t *testing.T) {
	e := openTest(t, Config{MemTableSize: 4})
	// Generation 1 flushes t=1..4 with value v.
	for i := 1; i <= 4; i++ {
		if err := e.Insert("s", int64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	// Rewrite t=2 (goes unsequence), plus new t=10.
	if err := e.Insert("s", 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("s", 10, 1); err != nil {
		t.Fatal(err)
	}
	out, err := e.Query("s", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	wantT := []int64{1, 2, 3, 4, 10}
	if len(out) != len(wantT) {
		t.Fatalf("query = %v", out)
	}
	for i := range wantT {
		if out[i].T != wantT[i] {
			t.Fatalf("query = %v, want times %v", out, wantT)
		}
	}
	if out[1].V != 2 {
		t.Fatalf("dedup kept old value: %v", out[1])
	}
}

func TestQueryDedupAcrossFlushedFiles(t *testing.T) {
	// A rewrite that has itself been flushed (so both versions live in
	// files, not memtables) must still resolve newest-wins.
	e := openTest(t, Config{MemTableSize: 4})
	for i := 1; i <= 4; i++ { // gen 1 flushes t=1..4, v=1
		if err := e.Insert("s", int64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	// Gen 2: rewrite t=2 (unsequence) plus filler, then force flush so
	// the rewrite lands in a later file.
	if err := e.Insert("s", 2, 2); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if st := e.Stats(); st.Files < 2 {
		t.Fatalf("need the rewrite in its own file: %+v", st)
	}
	out, err := e.Query("s", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].V != 2 {
		t.Fatalf("file-vs-file dedup kept the old value: %+v", out)
	}
}

func TestMultiSensorIsolation(t *testing.T) {
	e := openTest(t, Config{MemTableSize: 50})
	for i := 0; i < 100; i++ {
		if err := e.Insert(fmt.Sprintf("s%d", i%4), int64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for sid := 0; sid < 4; sid++ {
		out, err := e.Query(fmt.Sprintf("s%d", sid), 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 25 {
			t.Fatalf("sensor s%d: %d points, want 25", sid, len(out))
		}
		for _, tv := range out {
			if int(tv.T)%4 != sid {
				t.Fatalf("sensor s%d got foreign point %+v", sid, tv)
			}
		}
	}
}

func TestLatestTime(t *testing.T) {
	e := openTest(t, Config{})
	if _, ok := e.LatestTime("s"); ok {
		t.Fatal("latest on empty sensor should be absent")
	}
	e.Insert("s", 10, 1)
	e.Insert("s", 5, 1) // older, must not regress latest
	got, ok := e.LatestTime("s")
	if !ok || got != 10 {
		t.Fatalf("LatestTime = %d,%v", got, ok)
	}
}

func TestEveryAlgorithmRunsTheEngine(t *testing.T) {
	s := dataset.AbsNormal(600, 1, 4, 3)
	for _, algo := range []string{"backward", "quick", "tim", "patience", "ck", "y"} {
		e := openTest(t, Config{MemTableSize: 100, Algorithm: algo})
		for i := range s.Times {
			if err := e.Insert("s", s.Times[i], s.Values[i]); err != nil {
				t.Fatal(err)
			}
		}
		out, err := e.Query("s", -1<<62, 1<<62)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 600 {
			t.Fatalf("%s: %d points", algo, len(out))
		}
		for i := 1; i < len(out); i++ {
			if out[i-1].T > out[i].T {
				t.Fatalf("%s: unsorted result", algo)
			}
		}
	}
}

func TestAsyncFlush(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, MemTableSize: 200}) // async
	if err != nil {
		t.Fatal(err)
	}
	s := dataset.LogNormal(5000, 1, 1, 4)
	for i := range s.Times {
		if err := e.Insert("s", s.Times[i], s.Values[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Query concurrently with flushing.
	out, err := e.Query("s", -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5000 {
		t.Fatalf("pre-close query saw %d points", len(out))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert("s", 1, 1); err == nil {
		t.Fatal("insert after close accepted")
	}
	if _, err := e.Query("s", 0, 1); err == nil {
		t.Fatal("query after close accepted")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, MemTableSize: 500})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			base := int64(w * 1_000_000)
			for i := 0; i < 2000; i++ {
				tt := base + int64(i) - r.Int63n(5)
				if err := e.Insert(fmt.Sprintf("s%d", w), tt, float64(tt)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sensor := fmt.Sprintf("s%d", q)
				latest, ok := e.LatestTime(sensor)
				if !ok {
					continue
				}
				out, err := e.Query(sensor, latest-1000, latest)
				if err != nil {
					errCh <- err
					return
				}
				for j := 1; j < len(out); j++ {
					if out[j-1].T > out[j].T {
						errCh <- fmt.Errorf("unsorted concurrent query result")
						return
					}
				}
			}
		}(q)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Full count after close/flush.
	for w := 0; w < 4; w++ {
		out, err := e.Query(fmt.Sprintf("s%d", w), -1<<62, 1<<62)
		if err != nil {
			t.Fatal(err)
		}
		// Writers may produce duplicate timestamps (tt - rand), so
		// the distinct count can be well below 2000 (coupon-collector
		// coverage of ~2004 slots ≈ 1350) but never above.
		if len(out) > 2000 || len(out) < 1200 {
			t.Fatalf("writer %d: %d distinct points", w, len(out))
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	e := openTest(t, Config{MemTableSize: 100})
	s := dataset.AbsNormal(350, 1, 2, 6)
	for i := range s.Times {
		if err := e.Insert("s", s.Times[i], s.Values[i]); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.FlushCount != 3 {
		t.Fatalf("flush count = %d, want 3", st.FlushCount)
	}
	if st.AvgFlushMillis <= 0 {
		t.Fatalf("flush time not recorded: %+v", st)
	}
	if st.AvgSortMillis < 0 || st.AvgSortMillis > st.AvgFlushMillis {
		t.Fatalf("sort time out of range: %+v", st)
	}
	if st.MemTablePoints != 50 {
		t.Fatalf("memtable points = %d, want 50", st.MemTablePoints)
	}
	if st.SeqPoints+st.UnseqPoints != 350 {
		t.Fatalf("point accounting wrong: %+v", st)
	}
}

func TestBatchValidation(t *testing.T) {
	e := openTest(t, Config{})
	if err := e.InsertBatch("s", []int64{1, 2}, []float64{1}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestEmptyQueryAndUnknownSensor(t *testing.T) {
	e := openTest(t, Config{})
	out, err := e.Query("ghost", 0, 100)
	if err != nil || out != nil {
		t.Fatalf("ghost query = %v, %v", out, err)
	}
}
