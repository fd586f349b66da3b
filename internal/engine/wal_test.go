package engine

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/tsfile"
	"repro/internal/wal"
)

// crash abandons an engine without Close, simulating a process crash:
// memtable contents are lost, only chunk files and WAL segments
// survive.
func crash(e *Engine) {
	e.WaitFlushes() // the "crash" happens after in-flight disk writes land
}

func TestWALRecoversUnflushedData(t *testing.T) {
	dir := t.TempDir()
	e1, err := Open(Config{Dir: dir, MemTableSize: 1000, WAL: true, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	// 100 points — far below the flush threshold, so without the WAL
	// they would all be lost.
	s := dataset.LogNormal(100, 1, 2, 5)
	for i := range s.Times {
		if err := e1.Insert("s", s.Times[i], s.Values[i]); err != nil {
			t.Fatal(err)
		}
	}
	crash(e1)

	e2, err := Open(Config{Dir: dir, MemTableSize: 1000, WAL: true, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	out, err := e2.Query("s", -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("recovered %d of 100 unflushed points", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].T > out[i].T {
			t.Fatal("recovered data unsorted")
		}
	}
}

func TestWALMixedFlushedAndUnflushed(t *testing.T) {
	dir := t.TempDir()
	e1, err := Open(Config{Dir: dir, MemTableSize: 300, WAL: true, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	s := dataset.AbsNormal(1000, 1, 2, 7)
	for i := range s.Times {
		if err := e1.Insert("s", s.Times[i], s.Values[i]); err != nil {
			t.Fatal(err)
		}
	}
	// 1000 points with threshold 300: three generations flushed, 100
	// points live only in WAL + memtable.
	crash(e1)

	e2, err := Open(Config{Dir: dir, MemTableSize: 300, WAL: true, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	out, err := e2.Query("s", -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1000 {
		t.Fatalf("recovered %d of 1000 points", len(out))
	}
}

func TestWALSegmentsRemovedAfterFlush(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, MemTableSize: 100, WAL: true, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := e.Insert("s", int64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Only the active segment (current generation) may remain.
	if len(segs) != 1 {
		t.Fatalf("flushed generations left segments behind: %v", segs)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ = wal.Segments(dir)
	if len(segs) != 0 {
		t.Fatalf("Close left segments: %v", segs)
	}
}

func TestWALRecoveryIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	e1, err := Open(Config{Dir: dir, MemTableSize: 1000, WAL: true, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		e1.Insert("s", int64(i), float64(i))
	}
	crash(e1)

	// Two successive recoveries must not duplicate data.
	for round := 0; round < 2; round++ {
		e, err := Open(Config{Dir: dir, MemTableSize: 1000, WAL: true, SyncFlush: true})
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.Query("s", 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 50 {
			t.Fatalf("round %d: %d points, want 50", round, len(out))
		}
		crash(e)
	}
}

func TestWALDisabledWritesNoSegments(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, MemTableSize: 100, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 250; i++ {
		e.Insert("s", int64(i), 0)
	}
	e.Close()
	segs, _ := wal.Segments(dir)
	if len(segs) != 0 {
		t.Fatalf("WAL disabled but segments exist: %v", segs)
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "p*", "L*", "*.gtsf")); len(matches) == 0 {
		t.Fatal("no chunk files written")
	}
}

func TestWALRewriteAfterRecoveryKeepsLatestValue(t *testing.T) {
	dir := t.TempDir()
	e1, err := Open(Config{Dir: dir, MemTableSize: 1000, WAL: true, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	e1.Insert("s", 7, 1)
	e1.Insert("s", 7, 2) // rewrite in the same generation
	crash(e1)

	e2, err := Open(Config{Dir: dir, MemTableSize: 1000, WAL: true, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	out, err := e2.Query("s", 7, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("duplicate timestamps after recovery: %+v", out)
	}
}

// TestOverlongSensorNameRejected: a sensor name the chunk format
// cannot store is refused at insert, before the WAL append. Accepted,
// it would fail the flush of its generation and with it every query,
// Close, and — replayed from the WAL — every later Open.
func TestOverlongSensorNameRejected(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MemTableSize: 4, WAL: true, SyncFlush: true}
	e1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", tsfile.MaxSensorName+1)
	if err := e1.InsertBatch(long, []int64{1, 2}, []float64{1, 2}); err == nil {
		t.Fatalf("%d-byte sensor name accepted", len(long))
	}
	if err := e1.Insert(long, 3, 3); err == nil {
		t.Fatalf("%d-byte sensor name accepted by Insert", len(long))
	}
	limit := strings.Repeat("y", tsfile.MaxSensorName)
	for i := int64(0); i < 10; i++ { // crosses the flush threshold twice
		if err := e1.Insert(limit, i, float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := e1.Insert("s", i, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if out, err := e1.Query("s", 0, 9); err != nil || len(out) != 10 {
		t.Fatalf("query after the rejected insert: %d points, %v", len(out), err)
	}
	crash(e1)

	e2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for _, sensor := range []string{limit, "s"} {
		if out, err := e2.Query(sensor, 0, 9); err != nil || len(out) != 10 {
			t.Fatalf("%d-byte sensor after reopen: %d points, %v", len(sensor), len(out), err)
		}
	}
	if out, err := e2.Query(long, 0, 9); err != nil || len(out) != 0 {
		t.Fatalf("rejected sensor after reopen: %d points, %v", len(out), err)
	}
	if err := e2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestWALReplayLeavesPointCountersAlone checks that WAL replay routes
// points through the separation policy without counting them: after a
// reopen, SeqPoints and UnseqPoints count only the new engine's own
// inserts.
func TestWALReplayLeavesPointCountersAlone(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MemTableSize: 10, WAL: true, SyncFlush: true}
	e1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 20, 21, 3} { // flushes t=0..9
		if err := e1.Insert("s", ts, float64(ts)); err != nil {
			t.Fatal(err)
		}
	}
	if st := e1.Stats(); st.SeqPoints != 12 || st.UnseqPoints != 1 {
		t.Fatalf("before crash: seq %d unseq %d, want 12 1", st.SeqPoints, st.UnseqPoints)
	}
	crash(e1)

	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if st := e2.Stats(); st.SeqPoints != 0 || st.UnseqPoints != 0 || st.RecoveredWALBatches != 3 {
		t.Fatalf("after replay: seq %d unseq %d batches %d, want 0 0 3", st.SeqPoints, st.UnseqPoints, st.RecoveredWALBatches)
	}
	if err := e2.InsertBatch("s", []int64{4, 30}, []float64{4, 30}); err != nil {
		t.Fatal(err)
	}
	if st := e2.Stats(); st.SeqPoints != 1 || st.UnseqPoints != 1 {
		t.Fatalf("after reopen: seq %d unseq %d, want 1 1", st.SeqPoints, st.UnseqPoints)
	}
	out, err := e2.Query("s", 0, 100)
	if err != nil || len(out) != 13 {
		t.Fatalf("Query = %d records, %v; want 13", len(out), err)
	}
}
