package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/tsfile"
)

func TestCompactFoldsFiles(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, MemTableSize: 100, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s := dataset.LogNormal(1000, 1, 2, 3)
	for i := range s.Times {
		if err := e.Insert("s", s.Times[i], s.Values[i]); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	before, err := e.Query("s", -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if e.FileCount() < 2 {
		t.Fatalf("expected multiple files before compaction, got %d", e.FileCount())
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.FileCount() != 1 {
		t.Fatalf("files after compaction = %d", e.FileCount())
	}
	after, err := e.Query("s", -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("compaction changed point count: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("record %d changed: %+v -> %+v", i, before[i], after[i])
		}
	}
	// Old files are gone from disk: one terminal-level file is left.
	files, _ := filepath.Glob(filepath.Join(dir, "p*", "L*", "*.gtsf"))
	if len(files) != 1 || filepath.Base(filepath.Dir(files[0])) != fmt.Sprintf("L%d", DefaultMaxLevel) {
		t.Fatalf("disk files after compaction: %v", files)
	}
}

func TestCompactNewestWins(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, MemTableSize: 4, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Generation 1: t=1..4 value 1 (flushes).
	for i := 1; i <= 4; i++ {
		e.Insert("s", int64(i), 1)
	}
	// Generation 2: rewrite t=2 with value 2 (unsequence, flushes).
	e.Insert("s", 2, 2)
	e.Insert("s", 100, 1)
	e.Insert("s", 101, 1)
	e.Insert("s", 102, 1)
	e.Flush()
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	out, err := e.Query("s", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].V != 2 {
		t.Fatalf("rewrite lost in compaction: %+v", out)
	}
}

func TestCompactMultiSensor(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, MemTableSize: 50, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 200; i++ {
		e.Insert("a", int64(i), float64(i))
		e.Insert("b", int64(i), float64(-i))
	}
	e.Flush()
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, sensor := range []string{"a", "b"} {
		out, err := e.Query(sensor, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 200 {
			t.Fatalf("%s: %d points after compaction", sensor, len(out))
		}
	}
}

func TestCompactNoFilesIsNoop(t *testing.T) {
	e, err := Open(Config{Dir: t.TempDir(), SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	// One file: still a no-op.
	for i := 0; i < 10; i++ {
		e.Insert("s", int64(i), 0)
	}
	e.Flush()
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.FileCount() != 1 {
		t.Fatalf("files = %d", e.FileCount())
	}
}

func TestCompactConcurrentWithTraffic(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, MemTableSize: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Seed some flushed files.
	for i := 0; i < 900; i++ {
		e.Insert("s", int64(i), float64(i))
	}
	e.WaitFlushes()

	done := make(chan struct{})
	errCh := make(chan error, 3)
	go func() { // writer
		defer close(done)
		for i := 900; i < 2400; i++ {
			if err := e.Insert("s", int64(i), float64(i)); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() { // reader
		for i := 0; i < 60; i++ {
			out, err := e.Query("s", 0, 1<<40)
			if err != nil {
				errCh <- err
				return
			}
			for j := 1; j < len(out); j++ {
				if out[j-1].T > out[j].T {
					errCh <- errUnsorted
					return
				}
			}
		}
	}()
	for i := 0; i < 5; i++ { // compactor
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	e.Flush()
	out, err := e.Query("s", 0, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2400 {
		t.Fatalf("lost data under concurrent compaction: %d of 2400", len(out))
	}
}

var errUnsorted = fmt.Errorf("query result unsorted during compaction")

func TestCompactThenRecover(t *testing.T) {
	dir := t.TempDir()
	e1, err := Open(Config{Dir: dir, MemTableSize: 100, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	s := dataset.SamsungS10(500, 9)
	for i := range s.Times {
		e1.Insert("s", s.Times[i], s.Values[i])
	}
	e1.Flush()
	if err := e1.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(Config{Dir: dir, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	out, err := e2.Query("s", -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 500 {
		t.Fatalf("recovered %d of 500 after compaction", len(out))
	}
}

// TestCompactVerifiesChunkNames renames a chunk's sensor in place in
// its name header, which no block CRC covers: queries decode the
// chunk's blocks by index entry and still answer, but compaction,
// which rewrites the chunk under its indexed name, must refuse it.
func TestCompactVerifiesChunkNames(t *testing.T) {
	dir := t.TempDir()
	e := openTest(t, Config{Dir: dir, MemTableSize: 1 << 20, l0CompactFiles: 100})
	for gen := int64(0); gen < 2; gen++ {
		for ts := gen * 100; ts < gen*100+100; ts++ {
			if err := e.Insert("s1", ts, float64(ts)); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush()
	}
	files, _ := filepath.Glob(filepath.Join(dir, "p*", "L0", "*.gtsf"))
	if len(files) != 2 {
		t.Fatalf("flushed files %v, want 2", files)
	}
	r, err := tsfile.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	off := r.Index()[0].Offset
	r.Close()
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[off+2] = '2' // the header's "s1" (after its length byte) reads "s2"
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := e.Query("s1", 0, 199); err != nil || len(out) != 200 {
		t.Fatalf("Query = %d records, %v; want 200", len(out), err)
	}
	if err := e.Compact(); !errors.Is(err, tsfile.ErrCorrupt) {
		t.Fatalf("Compact over a renamed chunk = %v, want ErrCorrupt", err)
	}
}
