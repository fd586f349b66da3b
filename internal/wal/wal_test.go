package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/encoding"
	"repro/internal/faultfs"
)

func TestAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000000001.log")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("a", []int64{1, 2, 3}, []float64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("b", []int64{5}, []float64{-5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Batch
	if err := Replay(path, func(b Batch) error { got = append(got, b); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Sensor != "a" || got[1].Sensor != "b" {
		t.Fatalf("replayed %+v", got)
	}
	if got[0].Times[2] != 3 || got[0].Values[2] != 30 || got[1].Values[0] != -5 {
		t.Fatalf("replayed %+v", got)
	}
}

// TestAppendWritesAppendFrame: Append builds its frame in place, and
// the bytes on disk must equal AppendFrame over the payload built
// separately — including the worst-case varints (deltas spanning the
// whole int64 range) and an empty batch.
func TestAppendWritesAppendFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000000001.log")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	batches := []struct {
		sensor string
		times  []int64
		values []float64
	}{
		{"cpu,host=a.usage", []int64{100, 90, 110}, []float64{1, 2, 3}},
		{strings.Repeat("s", 300), []int64{math.MaxInt64, math.MinInt64, math.MaxInt64, -1}, []float64{math.Inf(1), math.NaN(), -0, 5}},
		{"empty", nil, nil},
	}
	var want []byte
	for _, b := range batches {
		if err := s.Append(b.sensor, b.times, b.values); err != nil {
			t.Fatal(err)
		}
		payload := binary.AppendUvarint(nil, uint64(len(b.sensor)))
		payload = append(payload, b.sensor...)
		payload = encoding.AppendTS2Diff(payload, b.times)
		payload = encoding.AppendPlainFloat64(payload, b.values)
		want = AppendFrame(want, payload)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment holds %d bytes, AppendFrame gives %d; they differ", len(got), len(want))
	}
}

// TestAppendAllocs: one buffer per batch, sized up front.
func TestAppendAllocs(t *testing.T) {
	s, err := Create(filepath.Join(t.TempDir(), "wal-000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	times := make([]int64, 500)
	values := make([]float64, 500)
	for i := range times {
		times[i] = 1_700_000_000_000_000_000 + int64(i*i%977)*1_000_000
		values[i] = float64(i) / 3
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.Append("cpu,host=a.usage", times, values); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Append of a 500-point batch allocates %v times, want ≤ 1", allocs)
	}
}

func TestAppendValidation(t *testing.T) {
	s, err := Create(filepath.Join(t.TempDir(), "wal-000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append("a", []int64{1, 2}, []float64{1}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestReplayTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000000001.log")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Append("a", []int64{1}, []float64{1})
	s.Append("b", []int64{2}, []float64{2})
	s.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-way through the second record: the first must survive,
	// the torn tail must be ignored without error.
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var got []Batch
	if err := Replay(path, func(b Batch) error { got = append(got, b); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Sensor != "a" {
		t.Fatalf("torn replay got %+v", got)
	}
}

func TestReplayMidFileCorruptionIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000000001.log")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Append("a", []int64{1}, []float64{1})
	s.Append("b", []int64{2}, []float64{2})
	s.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[6] ^= 0xFF // inside the first record's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Replay(path, func(Batch) error { return nil }); err == nil {
		t.Fatal("mid-file corruption silently accepted")
	}
}

func TestRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000000001.log")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Append("a", []int64{1}, []float64{1})
	if err := s.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("segment not removed")
	}
}

func TestSegmentsOrdering(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []string{"wal-000000002.log", "wal-000000010.log", "wal-000000001.log"} {
		if err := os.WriteFile(filepath.Join(dir, n), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A non-WAL file must be ignored.
	os.WriteFile(filepath.Join(dir, "seq-000001.gtsf"), nil, 0o644)
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 3 || filepath.Base(segs[0]) != "wal-000000001.log" || filepath.Base(segs[2]) != "wal-000000010.log" {
		t.Fatalf("segments = %v", segs)
	}
}

func TestSegmentsNumericOrderPastPadding(t *testing.T) {
	dir := t.TempDir()
	// 10-digit sequence numbers sort lexically BEFORE 9-digit ones
	// ("wal-1000000000" < "wal-999999999"); the numeric sort must not.
	for _, n := range []string{
		"wal-1000000000.log", // seq 1e9, past the 9-digit padding
		"wal-999999999.log",  // seq 999,999,999
		"wal-000000003.log",
		"wal-not-a-seq.log", // non-conforming: skipped
		"wal-12x45.log",     // non-conforming: skipped
	} {
		if err := os.WriteFile(filepath.Join(dir, n), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"wal-000000003.log", "wal-999999999.log", "wal-1000000000.log"}
	if len(segs) != len(want) {
		t.Fatalf("segments = %v", segs)
	}
	for i, w := range want {
		if filepath.Base(segs[i]) != w {
			t.Fatalf("segments[%d] = %s, want %s (full: %v)", i, filepath.Base(segs[i]), w, segs)
		}
	}
}

func TestSeqFromName(t *testing.T) {
	cases := []struct {
		name string
		seq  int
		ok   bool
	}{
		{"wal-000000001.log", 1, true},
		{"wal-1000000000.log", 1000000000, true},
		{"wal-0.log", 0, true},
		{"wal-.log", 0, false},
		{"wal-01a.log", 0, false},
		{"wal-1.txt", 0, false},
		{"seq-000001.gtsf", 0, false},
	}
	for _, c := range cases {
		seq, ok := SeqFromName(c.name)
		if ok != c.ok || (ok && seq != c.seq) {
			t.Errorf("SeqFromName(%q) = %d, %v; want %d, %v", c.name, seq, ok, c.seq, c.ok)
		}
	}
}

func TestGroupCommitCoalesces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000000001.log")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 64
	var appendMu sync.Mutex // the engine serializes appends under its lock
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			appendMu.Lock()
			err := s.Append("a", []int64{int64(i)}, []float64{float64(i)})
			appendMu.Unlock()
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = s.Commit()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	syncs, commits := s.stats.Syncs.Load(), s.stats.Commits.Load()
	if commits != n {
		t.Fatalf("served %d commits, want %d", commits, n)
	}
	if syncs < 1 || syncs > n {
		t.Fatalf("issued %d syncs for %d commits", syncs, n)
	}
	t.Logf("group commit: %d commits over %d fsyncs (mean group %.1f)", commits, syncs, float64(commits)/float64(syncs))
	// Every committed batch must be durable and replayable.
	count := 0
	if err := Replay(path, func(Batch) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("replayed %d batches, want %d", count, n)
	}
}

func TestCommitAfterRemoveReturnsNil(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000000001.log")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Append("a", []int64{1}, []float64{1})
	if err := s.Commit(); err != nil { // start the sync loop
		t.Fatal(err)
	}
	if err := s.Remove(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("commit on retired segment: %v", err)
	}
}

func TestDurableCreateRemoveSyncsDir(t *testing.T) {
	dir := t.TempDir()
	ops := make(map[string]int)
	var mu sync.Mutex
	fs := &faultfs.HookFS{Under: faultfs.OS, Hook: func(op faultfs.Op, path string) error {
		mu.Lock()
		ops[op.String()]++
		mu.Unlock()
		return nil
	}}
	s, err := CreateFS(fs, filepath.Join(dir, "wal-000000001.log"), Options{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Append("a", []int64{1}, []float64{1})
	if err := s.Remove(); err != nil {
		t.Fatal(err)
	}
	if ops["syncdir"] != 2 {
		t.Fatalf("durable create+remove must fsync the directory twice, got %d (ops %v)", ops["syncdir"], ops)
	}
}

func TestBatchesAndEmpty(t *testing.T) {
	s, err := Create(filepath.Join(t.TempDir(), "wal-000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Empty() || s.Batches() != 0 {
		t.Fatal("fresh segment should be empty")
	}
	s.Append("a", []int64{1}, []float64{1})
	if s.Empty() || s.Batches() != 1 {
		t.Fatalf("after one append: empty=%v batches=%d", s.Empty(), s.Batches())
	}
}

func TestReplayLargeSegmentStreams(t *testing.T) {
	// A multi-record segment with a torn tail: the streaming reader
	// must deliver every intact record in order and stop silently.
	path := filepath.Join(t.TempDir(), "wal-000000001.log")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const batches = 200
	for i := 0; i < batches; i++ {
		ts := make([]int64, 50)
		vs := make([]float64, 50)
		for j := range ts {
			ts[j] = int64(i*50 + j)
			vs[j] = float64(j)
		}
		if err := s.Append(fmt.Sprintf("s%d", i%7), ts, vs); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-11], 0o644); err != nil {
		t.Fatal(err)
	}
	got := 0
	var lastFirst int64 = -1
	if err := Replay(path, func(b Batch) error {
		if b.Times[0] <= lastFirst {
			return fmt.Errorf("out of order: %d after %d", b.Times[0], lastFirst)
		}
		lastFirst = b.Times[0]
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != batches-1 {
		t.Fatalf("replayed %d batches, want %d (last one torn)", got, batches-1)
	}
}

func TestAppendEmptyBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000000001.log")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("a", nil, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	count := 0
	if err := Replay(path, func(b Batch) error {
		count++
		if b.Sensor != "a" || len(b.Times) != 0 {
			t.Fatalf("empty batch mangled: %+v", b)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("replayed %d batches", count)
	}
}

func TestReplayCallbackErrorStops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000000001.log")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Append("a", []int64{1}, []float64{1})
	s.Append("b", []int64{2}, []float64{2})
	s.Close()
	calls := 0
	sentinel := os.ErrClosed
	err = Replay(path, func(Batch) error { calls++; return sentinel })
	if err != sentinel || calls != 1 {
		t.Fatalf("callback error not propagated: calls=%d err=%v", calls, err)
	}
}

func TestSyncAndPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000000007.log")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Path() != path {
		t.Fatalf("Path = %q", s.Path())
	}
	s.Append("a", []int64{1}, []float64{1})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayEmptySegment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal-000000001.log")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := Replay(path, func(Batch) error { t.Fatal("callback on empty"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestReplayParentSegment replays testdata/v10.log, a segment written
// by the WAL before its records were encoded by encoding.AppendBatch
// (wire protocol version 10), and requires the batches it was written
// with.
func TestReplayParentSegment(t *testing.T) {
	want := []Batch{
		{"root.sg.d1.s1", []int64{1000, 1001, 1002, 1003}, []float64{20.5, 20.5, 20.75, 21}},
		{"cpu,host=a.usage", []int64{30, 10, 20, 20, -5}, []float64{0.5, 0.25, 1, 2, -3}},
		{"s", []int64{math.MaxInt64, 0, math.MinInt64}, []float64{math.Inf(1), 0, math.MaxFloat64}},
		{"empty", nil, nil},
	}
	var got []Batch
	if err := Replay(filepath.Join("testdata", "v10.log"), func(b Batch) error {
		got = append(got, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d batches, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Sensor != w.Sensor || fmt.Sprint(g.Times) != fmt.Sprint(w.Times) || fmt.Sprint(g.Values) != fmt.Sprint(w.Values) {
			t.Fatalf("batch %d = %+v, want %+v", i, g, w)
		}
	}
	// The segment is also exactly what Append writes today.
	path := filepath.Join(t.TempDir(), "wal-000000001.log")
	s, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range want {
		if err := s.Append(b.Sensor, b.Times, b.Values); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	old, _ := os.ReadFile(filepath.Join("testdata", "v10.log"))
	if now, _ := os.ReadFile(path); !bytes.Equal(now, old) {
		t.Fatal("Append no longer writes the bytes of testdata/v10.log")
	}
}
