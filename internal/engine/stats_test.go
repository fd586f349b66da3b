package engine

import (
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStatsCountsFlushWithItsFiles: a drain publishes its files and
// counts its flush in one step, so no Stats snapshot taken while async
// flushes run shows a file whose flush is not yet counted. With one
// partition, sequence-only writes and compaction held off, every flush
// writes exactly one file, so Files == FlushCount in every snapshot.
func TestStatsCountsFlushWithItsFiles(t *testing.T) {
	e, err := Open(Config{
		Dir:            t.TempDir(),
		MemTableSize:   64,
		FlushWorkers:   2,
		l0CompactFiles: 1 << 20,
		levelBaseBytes: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var stop atomic.Bool
	var snapshots, bad atomic.Int64
	var mismatch atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			s := e.Stats()
			snapshots.Add(1)
			if s.Files != s.FlushCount {
				bad.Add(1)
				mismatch.Store(s)
			}
		}
	}()
	times := make([]int64, 16)
	values := make([]float64, 16)
	for b := 0; b < 400; b++ {
		for i := range times {
			times[i] = int64(b*len(times) + i)
		}
		if err := e.InsertBatch("d0.s0", times, values); err != nil {
			t.Fatal(err)
		}
	}
	e.WaitFlushes()
	stop.Store(true)
	wg.Wait()
	if n := bad.Load(); n > 0 {
		s := mismatch.Load().(Stats)
		t.Fatalf("%d of %d snapshots torn, e.g. Files=%d FlushCount=%d", n, snapshots.Load(), s.Files, s.FlushCount)
	}
	if s := e.Stats(); s.FlushCount < 50 || s.Files != s.FlushCount || s.PartitionsActive != 1 {
		t.Fatalf("final stats: %d flushes, %d files, %d partitions", s.FlushCount, s.Files, s.PartitionsActive)
	}
}

// TestMergeStatsFollowsDeclaredRules walks every Stats field, merges
// three snapshots (the middle one all zero, so a zero weight is in
// play) and checks each merged field
// against the rule its merge tag declares, computed here by hand.
func TestMergeStatsFollowsDeclaredRules(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	per := make([]Stats, 3)
	for i := 0; i < typ.NumField(); i++ {
		for j, x := range []float64{3 + float64(i), 0, 7 + 2*float64(i)} {
			f := reflect.ValueOf(&per[j]).Elem().Field(i)
			if f.Kind() == reflect.Float64 {
				f.SetFloat(x + 0.25)
			} else {
				f.SetInt(int64(x))
			}
		}
	}
	value := func(s Stats, name string) float64 {
		f := reflect.ValueOf(s).FieldByName(name)
		if f.Kind() == reflect.Float64 {
			return f.Float()
		}
		return float64(f.Int())
	}
	m := MergeStats(per)
	for i := 0; i < typ.NumField(); i++ {
		name, tag := typ.Field(i).Name, typ.Field(i).Tag.Get("merge")
		xs := []float64{value(per[0], name), value(per[1], name), value(per[2], name)}
		var want float64
		switch weight, isMean := strings.CutPrefix(tag, "mean:"); {
		case tag == "":
			want = xs[0] + xs[1] + xs[2]
		case tag == "max":
			want = xs[2]
		case tag == "first":
			want = xs[0]
		case isMean:
			w := []float64{value(per[0], weight), value(per[1], weight), value(per[2], weight)}
			want = (xs[0]*w[0] + xs[1]*w[1] + xs[2]*w[2]) / (w[0] + w[1] + w[2])
		default:
			t.Fatalf("%s: tag %q has no rule here", name, tag)
		}
		if got := value(m, name); got != want {
			t.Errorf("%s (merge %q) = %v, want %v", name, tag, got, want)
		}
	}
	if z := MergeStats(nil); z != (Stats{}) {
		t.Fatalf("MergeStats(nil) = %+v", z)
	}
}

// TestStatsMergeDeclarations pins which fields do not sum: a dropped or
// mistyped tag would silently turn a maximum or a mean into a sum.
func TestStatsMergeDeclarations(t *testing.T) {
	want := map[string]string{
		"AvgFlushMillis":         "mean:FlushCount",
		"AvgSortMillis":          "mean:FlushCount",
		"AvgEncodeMillis":        "mean:FlushCount",
		"AvgWriteMillis":         "mean:FlushCount",
		"AvgLockWaitMicros":      "mean:LockWaits",
		"MaxLockWaitMicros":      "max",
		"P99LockWaitMicros":      "max",
		"MaxCompactionPassBytes": "max",
		"MaxFanoutWidth":         "max",
		"FlushWorkers":           "first",
	}
	typ := reflect.TypeOf(Stats{})
	got := map[string]string{}
	for i := 0; i < typ.NumField(); i++ {
		if tag := typ.Field(i).Tag.Get("merge"); tag != "" {
			got[typ.Field(i).Name] = tag
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge tags:\n got %v\nwant %v", got, want)
	}
	if len(StatsFields) != typ.NumField() {
		t.Fatalf("StatsFields has %d entries for %d fields", len(StatsFields), typ.NumField())
	}
}

// TestStatsTableRefusesBadDeclarations: a field the table cannot carry
// or fold panics when the table is built, like Stats itself at init.
func TestStatsTableRefusesBadDeclarations(t *testing.T) {
	for name, v := range map[string]any{
		"unknown tag": struct {
			A int64 `merge:"median"`
		}{},
		"min-nonzero tag": struct {
			A int64 `merge:"min-nonzero"`
		}{},
		"bool field": struct{ A bool }{},
		"unexported": struct{ a int64 }{},
		"bare mean": struct {
			A float64 `merge:"mean"`
		}{},
		"missing weight": struct {
			A float64 `merge:"mean:N"`
		}{},
		"int mean": struct {
			N int
			A int64 `merge:"mean:N"`
		}{},
		"float weight": struct {
			N float64
			A float64 `merge:"mean:N"`
		}{},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("statsTable accepted it")
				}
			}()
			statsTable(reflect.TypeOf(v))
		})
	}
}
