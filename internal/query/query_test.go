package query

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/winagg"
)

func pts(tv ...float64) []engine.TV {
	out := make([]engine.TV, 0, len(tv)/2)
	for i := 0; i+1 < len(tv); i += 2 {
		out = append(out, engine.TV{T: int64(tv[i]), V: tv[i+1]})
	}
	return out
}

func TestAggregateWindowsAvg(t *testing.T) {
	// Two windows of width 10: [0,10) holds 1,3; [10,20) holds 5.
	in := pts(0, 1, 5, 3, 12, 5)
	out, err := AggregateWindows(in, 0, 20, 10, Avg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("windows = %+v", out)
	}
	if out[0].Start != 0 || out[0].Count != 2 || out[0].Value != 2 {
		t.Fatalf("window 0 = %+v", out[0])
	}
	if out[1].Start != 10 || out[1].Count != 1 || out[1].Value != 5 {
		t.Fatalf("window 1 = %+v", out[1])
	}
}

func TestAggregateWindowsAllAggregators(t *testing.T) {
	in := pts(0, 4, 1, -2, 2, 7) // one window
	wants := map[Aggregator]float64{
		Count: 3, Sum: 9, Avg: 3, Min: -2, Max: 7, First: 4, Last: 7,
	}
	for agg, want := range wants {
		out, err := AggregateWindows(in, 0, 10, 10, agg)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0].Value != want {
			t.Fatalf("%s: got %+v, want %g", agg, out, want)
		}
	}
}

func TestAggregateWindowsSkipsEmptyAndOutOfRange(t *testing.T) {
	in := pts(-5, 1, 0, 2, 35, 3, 99, 4)
	out, err := AggregateWindows(in, 0, 40, 10, Count)
	if err != nil {
		t.Fatal(err)
	}
	// Windows: [0,10)→1 point, [30,40)→1 point; -5 and 99 excluded;
	// empty windows [10,20),[20,30) omitted.
	if len(out) != 2 || out[0].Start != 0 || out[1].Start != 30 {
		t.Fatalf("windows = %+v", out)
	}
}

func TestAggregateWindowsRejectsDisorder(t *testing.T) {
	in := pts(5, 1, 3, 2) // out of order
	if _, err := AggregateWindows(in, 0, 10, 5, Avg); err == nil {
		t.Fatal("disordered input accepted — the exact failure the paper warns about")
	}
}

func TestAggregateWindowsValidation(t *testing.T) {
	if _, err := AggregateWindows(nil, 0, 10, 0, Avg); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := AggregateWindows(nil, 10, 0, 5, Avg); err == nil {
		t.Fatal("inverted range accepted")
	}
	out, err := AggregateWindows(nil, 0, 10, 5, Avg)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty input: %+v, %v", out, err)
	}
}

func TestAggregateWindowsNegativeStart(t *testing.T) {
	in := pts(-15, 1, -5, 2, 5, 3)
	out, err := AggregateWindows(in, -20, 10, 10, Sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0].Start != -20 || out[1].Start != -10 || out[2].Start != 0 {
		t.Fatalf("windows = %+v", out)
	}
}

func TestAggregateWindowsTiesWithinWindow(t *testing.T) {
	in := pts(5, 1, 5, 2, 5, 3) // equal timestamps are legal input
	out, err := AggregateWindows(in, 0, 10, 10, Count)
	if err != nil || len(out) != 1 || out[0].Count != 3 {
		t.Fatalf("ties: %+v, %v", out, err)
	}
}

func TestAggregatorString(t *testing.T) {
	if Count.String() != "count" || Avg.String() != "avg" || Aggregator(99).String() == "" {
		t.Fatal("String() wrong")
	}
}

func TestWindowQueryEndToEnd(t *testing.T) {
	e, err := engine.Open(engine.Config{Dir: t.TempDir(), MemTableSize: 50, SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// 120 points at t=0..119, value = t; some arrive out of order.
	order := make([]int64, 0, 120)
	for i := 0; i < 120; i += 2 {
		order = append(order, int64(i+1), int64(i)) // pairwise swapped
	}
	for _, tt := range order {
		if err := e.Insert("s", tt, float64(tt)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := WindowQuery(e, "s", 0, 120, 60, Avg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("windows = %+v", out)
	}
	// Average of 0..59 = 29.5; of 60..119 = 89.5.
	if math.Abs(out[0].Value-29.5) > 1e-9 || math.Abs(out[1].Value-89.5) > 1e-9 {
		t.Fatalf("averages = %+v", out)
	}
	if out[0].Count != 60 || out[1].Count != 60 {
		t.Fatalf("counts = %+v", out)
	}
}

func TestWindowQueryHalfOpenBoundary(t *testing.T) {
	e, err := engine.Open(engine.Config{Dir: t.TempDir(), SyncFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.Insert("s", 9, 1)
	e.Insert("s", 10, 2) // endT is exclusive: must not appear
	out, err := WindowQuery(e, "s", 0, 10, 10, Count)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Count != 1 {
		t.Fatalf("boundary leak: %+v", out)
	}
}

// recordingSource counts pushdown calls so tests can prove WindowQuery
// short-circuited (or dispatched to the store).
type recordingSource struct {
	aggs int
}

func (r *recordingSource) AggregateWindows(sensor string, startT, endT, window int64, op winagg.Op) ([]winagg.Window, error) {
	r.aggs++
	return []winagg.Window{{Start: startT, Count: 2, Value: 3}}, nil
}

func TestWindowQueryEmptyRangeGuards(t *testing.T) {
	src := &recordingSource{}
	// endT == startT is empty under the half-open contract, down to
	// endT == math.MinInt64: the store is never asked.
	for _, r := range [][2]int64{{0, 0}, {math.MinInt64, math.MinInt64}, {5, 5}} {
		out, err := WindowQuery(src, "s", r[0], r[1], 10, Count)
		if err != nil || out != nil {
			t.Fatalf("[%d,%d): got %v, %v", r[0], r[1], out, err)
		}
	}
	if src.aggs != 0 {
		t.Fatalf("empty range still reached the store %d times", src.aggs)
	}
	if _, err := WindowQuery(src, "s", 10, 5, 10, Count); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := WindowQuery(src, "s", 0, 10, 0, Count); err == nil {
		t.Fatal("window=0 accepted")
	}
}

func TestWindowQueryDispatchesToPushdown(t *testing.T) {
	agg := &recordingSource{}
	out, err := WindowQuery(agg, "s", 0, 10, 10, Sum)
	if err != nil {
		t.Fatal(err)
	}
	if agg.aggs != 1 {
		t.Fatalf("pushdown not used: aggs=%d", agg.aggs)
	}
	if len(out) != 1 || out[0].Count != 2 {
		t.Fatalf("pushdown result not returned: %+v", out)
	}
}
