package engine

import (
	"testing"

	"repro/internal/dataset"
)

func TestQueryBoundsInclusive(t *testing.T) {
	e := openTest(t, Config{})
	for i := 1; i <= 5; i++ {
		e.Insert("s", int64(i*10), float64(i))
	}
	cases := []struct {
		min, max int64
		want     int
	}{
		{10, 50, 5},  // exact bounds inclusive
		{11, 49, 3},  // strict interior
		{50, 50, 1},  // single point
		{51, 100, 0}, // past the end
		{-5, 9, 0},   // before the start
		{30, 10, 0},  // inverted
	}
	for _, c := range cases {
		out, err := e.Query("s", c.min, c.max)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != c.want {
			t.Fatalf("[%d,%d]: got %d points, want %d", c.min, c.max, len(out), c.want)
		}
	}
}

func TestQueryAfterManyGenerations(t *testing.T) {
	// Dozens of small generations: the k-way assembly across many
	// files must stay sorted and complete.
	e := openTest(t, Config{MemTableSize: 50})
	s := dataset.LogNormal(2000, 1, 1, 12)
	for i := range s.Times {
		if err := e.Insert("s", s.Times[i], s.Values[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.FlushCount < 30 {
		t.Fatalf("expected many generations, got %d flushes", st.FlushCount)
	}
	out, err := e.Query("s", -1<<62, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2000 {
		t.Fatalf("got %d of 2000", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].T > out[i].T {
			t.Fatal("unsorted across generations")
		}
	}
}

func TestStatsSnapshotIndependentOfQueries(t *testing.T) {
	e := openTest(t, Config{MemTableSize: 10})
	for i := 0; i < 25; i++ {
		e.Insert("s", int64(i), 0)
	}
	before := e.Stats()
	for i := 0; i < 5; i++ {
		if _, err := e.Query("s", 0, 100); err != nil {
			t.Fatal(err)
		}
	}
	after := e.Stats()
	if after.FlushCount != before.FlushCount || after.SeqPoints != before.SeqPoints {
		t.Fatalf("queries mutated write stats: %+v vs %+v", before, after)
	}
}
