package engine

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/faultfs"
)

// crashCfg is the crash-matrix configuration: WALSync=always means a
// nil InsertBatch return is a durability promise, SyncFlush keeps
// flushes on the inserting goroutine so every run visits the same
// operation history, and the tiny memtable forces several flush+rotate
// cycles across the run.
func crashCfg(dir string, fs faultfs.FS) Config {
	return Config{
		Dir:          dir,
		MemTableSize: 25,
		SyncFlush:    true,
		WAL:          true,
		WALSync:      WALSyncAlways,
		FS:           fs,
	}
}

// crashIngest appends 10-point batches (timestamp == value, contiguous
// across batches) until the filesystem crashes, returning how many were
// acknowledged.
func crashIngest(e *Engine, batches int) int {
	acked := 0
	for b := 0; b < batches; b++ {
		times := make([]int64, 10)
		values := make([]float64, 10)
		for i := range times {
			times[i] = int64(b*10 + i)
			values[i] = float64(times[i])
		}
		if err := e.InsertBatch("s", times, values); err != nil {
			return acked
		}
		acked++
	}
	return acked
}

// TestCrashMatrix is the durability contract, exhaustively: for every
// k, kill the process at the k-th filesystem operation of an ingest
// run, recover from whatever survived, and assert that (a) every
// acknowledged batch is served in full with untorn values and (b) no
// temporary file is served or left behind. The sweep ends at the first
// k the run completes without reaching.
func TestCrashMatrix(t *testing.T) {
	const batches = 8
	for k := 1; ; k++ {
		dir := t.TempDir()
		inj := faultfs.NewInjector(faultfs.OS, k)
		acked := 0
		e, err := Open(crashCfg(dir, inj))
		if err == nil {
			acked = crashIngest(e, batches)
			e.Close() // crashed fs blocks durable mutation; ignore error
		}
		if !inj.Crashed() {
			if acked != batches {
				t.Fatalf("k=%d: run completed with %d/%d acked batches", k, acked, batches)
			}
			t.Logf("matrix complete: %d injection points swept", k-1)
			return
		}

		re, err := Open(crashCfg(dir, faultfs.OS))
		if err != nil {
			t.Fatalf("k=%d: recovery open: %v", k, err)
		}
		got, err := re.Query("s", 0, 1<<40)
		if err != nil {
			t.Fatalf("k=%d: recovery query: %v", k, err)
		}
		seen := make(map[int64]bool, len(got))
		for _, tv := range got {
			if tv.V != float64(tv.T) {
				t.Fatalf("k=%d: torn value at t=%d: got %v", k, tv.T, tv.V)
			}
			seen[tv.T] = true
		}
		for ts := int64(0); ts < int64(acked*10); ts++ {
			if !seen[ts] {
				t.Fatalf("k=%d: acknowledged point t=%d lost (%d batches acked)", k, ts, acked)
			}
		}
		checkFolded(t, dir) // no root chunk file, no .tmp anywhere
		if err := re.Close(); err != nil {
			t.Fatalf("k=%d: close after recovery: %v", k, err)
		}
		if k > 10000 {
			t.Fatal("matrix did not terminate; injector never exhausted")
		}
	}
}

// TestCloseKeepsWALOnFlushFailure is the regression test for the
// shutdown bug where Close removed the active WAL segment
// unconditionally: if the final flush fails, the segment is the only
// copy of the un-persisted batches and must survive for replay.
func TestCloseKeepsWALOnFlushFailure(t *testing.T) {
	dir := t.TempDir()
	var failCreates bool
	fs := &faultfs.HookFS{
		Under: faultfs.OS,
		Hook: func(op faultfs.Op, path string) error {
			if failCreates && op == faultfs.OpCreate && strings.Contains(path, ".gtsf") {
				return fmt.Errorf("injected: create %s", path)
			}
			return nil
		},
	}
	e, err := Open(Config{
		Dir:       dir,
		SyncFlush: true,
		WAL:       true,
		WALSync:   WALSyncAlways,
		FS:        fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InsertBatch("s", []int64{1, 2, 3}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	failCreates = true
	if err := e.Close(); err == nil {
		t.Fatal("close with failed final flush returned nil; WAL batches silently at risk")
	}
	segs, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	kept := false
	for _, ent := range segs {
		if strings.HasPrefix(ent.Name(), "wal-") && strings.HasSuffix(ent.Name(), ".log") {
			kept = true
		}
	}
	if !kept {
		t.Fatal("active WAL segment removed despite failed final flush")
	}

	// The retained segment must replay on the next open.
	re, err := Open(Config{Dir: dir, SyncFlush: true, WAL: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := re.Stats().RecoveredWALBatches; got != 1 {
		t.Fatalf("RecoveredWALBatches = %d, want 1", got)
	}
	tvs, err := re.Query("s", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tvs) != 3 {
		t.Fatalf("recovered %d points, want 3", len(tvs))
	}
	for i, tv := range tvs {
		if tv.T != int64(i+1) || tv.V != float64(i+1) {
			t.Fatalf("recovered point %d = (%d, %v), want (%d, %d)", i, tv.T, tv.V, i+1, i+1)
		}
	}
}
