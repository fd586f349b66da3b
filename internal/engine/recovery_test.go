package engine

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
)

func TestRecoverAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := dataset.LogNormal(500, 1, 2, 3)

	e1, err := Open(Config{Dir: dir, MemTableSize: 100, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Times {
		if err := e1.Insert("s", s.Times[i], s.Values[i]); err != nil {
			t.Fatal(err)
		}
	}
	before, err := e1.Query("s", -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Config{Dir: dir, MemTableSize: 100, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	after, err := e2.Query("s", -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("recovered %d of %d points", len(after), len(before))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("record %d changed across reopen: %+v vs %+v", i, before[i], after[i])
		}
	}
}

func TestRecoverRestoresSeparationWatermark(t *testing.T) {
	dir := t.TempDir()
	e1, err := Open(Config{Dir: dir, MemTableSize: 10, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ { // fills and flushes t=0..9
		if err := e1.Insert("s", int64(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(Config{Dir: dir, MemTableSize: 10, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	// A point at t=5 is older than the recovered watermark (9): it
	// must take the unsequence path.
	if err := e2.Insert("s", 5, 55); err != nil {
		t.Fatal(err)
	}
	if st := e2.Stats(); st.UnseqPoints != 1 {
		t.Fatalf("recovered watermark not applied: %+v", st)
	}
	// And the latest timestamp is recovered too.
	if latest, ok := e2.LatestTime("s"); !ok || latest != 9 {
		t.Fatalf("latest = %d, %v", latest, ok)
	}
}

func TestRecoverFileSeqContinues(t *testing.T) {
	dir := t.TempDir()
	e1, err := Open(Config{Dir: dir, MemTableSize: 5, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		e1.Insert("s", int64(i), 0)
	}
	e1.Close()
	filesBefore, _ := filepath.Glob(filepath.Join(dir, "p*", "L*", "*.gtsf"))

	e2, err := Open(Config{Dir: dir, MemTableSize: 5, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 30; i++ {
		e2.Insert("s", int64(i), 0)
	}
	e2.Close()
	filesAfter, _ := filepath.Glob(filepath.Join(dir, "p*", "L*", "*.gtsf"))
	if len(filesAfter) <= len(filesBefore) {
		t.Fatal("no new files after reopen")
	}
	// No file may have been overwritten: every old file still exists
	// and the engine can still read everything back.
	e3, err := Open(Config{Dir: dir, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	out, err := e3.Query("s", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 30 {
		t.Fatalf("recovered %d of 30 points", len(out))
	}
}

func TestRecoverIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.gtsf"), 0o755); err != nil {
		t.Fatal(err)
	}
	e, err := Open(Config{Dir: dir, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
}

func TestFlushFailureSurfaced(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "data")
	e, err := Open(Config{Dir: dir, MemTableSize: 5, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	// Replace the data directory with a regular file: the next flush's
	// file creation fails with ENOTDIR, for any user including root.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := e.Insert("s", int64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if e.FlushError() == nil {
		t.Fatal("flush failure not recorded")
	}
	if _, err := e.Query("s", 0, 10); err == nil {
		t.Fatal("query did not surface the flush failure")
	}
	// The data is still in the (stuck) flushing unit; Close surfaces
	// the error rather than losing it silently.
	if err := e.Close(); err == nil {
		t.Fatal("close did not surface the flush failure")
	}
}

func TestRecoverQuarantinesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seq-000001.gtsf"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Open(Config{Dir: dir, SyncFlush: true})
	if err != nil {
		t.Fatalf("open with corrupt file: %v", err)
	}
	defer e.Close()
	if got := e.Stats().QuarantinedFiles; got != 1 {
		t.Fatalf("QuarantinedFiles = %d, want 1", got)
	}
	if e.FileCount() != 0 {
		t.Fatalf("corrupt file served: FileCount = %d", e.FileCount())
	}
	if _, err := os.Stat(filepath.Join(dir, "seq-000001.gtsf.quarantine")); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "seq-000001.gtsf")); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still at servable name: %v", err)
	}
}

func TestRecoverQuarantinesTmpFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seq-000007.gtsf.tmp"), []byte("half a flush"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Open(Config{Dir: dir, SyncFlush: true})
	if err != nil {
		t.Fatalf("open with tmp leftover: %v", err)
	}
	defer e.Close()
	if got := e.Stats().QuarantinedFiles; got != 1 {
		t.Fatalf("QuarantinedFiles = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "seq-000007.gtsf.tmp.quarantine")); err != nil {
		t.Fatalf("quarantined tmp missing: %v", err)
	}
}

// TestNegativeTimesKeepWatermarkAndLatest: a sensor whose timestamps
// are all negative has a latest time before a flush and after a
// reopen, and its flush sets the separation watermark, so rewriting an
// already flushed timestamp takes the unsequence path.
func TestNegativeTimesKeepWatermarkAndLatest(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), MemTableSize: 1000, SyncFlush: true}
	e1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.InsertBatch("s", []int64{-30, -20, -10}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if latest, ok := e1.LatestTime("s"); !ok || latest != -10 {
		t.Fatalf("latest before flush = %d, %v; want -10, true", latest, ok)
	}
	e1.Flush()
	if err := e1.Insert("s", -20, 22); err != nil {
		t.Fatal(err)
	}
	if st := e1.Stats(); st.SeqPoints != 3 || st.UnseqPoints != 1 {
		t.Fatalf("rewrite of a flushed time: seq=%d unseq=%d, want 3 and 1", st.SeqPoints, st.UnseqPoints)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if latest, ok := e2.LatestTime("s"); !ok || latest != -10 {
		t.Fatalf("latest after reopen = %d, %v; want -10, true", latest, ok)
	}
	before := e2.Stats().UnseqPoints
	if err := e2.Insert("s", -30, 33); err != nil {
		t.Fatal(err)
	}
	if got := e2.Stats().UnseqPoints - before; got != 1 {
		t.Fatalf("rewrite after reopen took the unsequence path %d times, want 1", got)
	}
	out, err := e2.Query("s", -100, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []TV{{-30, 33}, {-20, 22}, {-10, 3}}
	if len(out) != len(want) {
		t.Fatalf("query = %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("query = %v, want %v", out, want)
		}
	}
}
