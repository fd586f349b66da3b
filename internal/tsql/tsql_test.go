package tsql

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/shard"
)

// testRouter opens the one-shard router a default tsql serves.
func testRouter(t *testing.T) *shard.Router {
	t.Helper()
	r, err := shard.Open(shard.Config{
		Config:     engine.Config{Dir: t.TempDir(), MemTableSize: 100, SyncFlush: true},
		ShardCount: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestParseInsert(t *testing.T) {
	st, err := Parse("INSERT INTO room.temp VALUES (1, 20.5), (2, 21)")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindInsert || st.Sensor != "room.temp" {
		t.Fatalf("%+v", st)
	}
	if len(st.Times) != 2 || st.Times[1] != 2 || st.Values[0] != 20.5 {
		t.Fatalf("%+v", st)
	}
}

func TestParseSelectStar(t *testing.T) {
	st, err := Parse("select * from s where time >= 10 and time <= 20 limit 5;")
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != KindSelect || st.HasAgg || st.Sensor != "s" {
		t.Fatalf("%+v", st)
	}
	if st.MinTime != 10 || st.MaxTime != 20 || st.Limit != 5 {
		t.Fatalf("%+v", st)
	}
}

func TestParseSelectStrictComparators(t *testing.T) {
	st, err := Parse("SELECT * FROM s WHERE time > 10 AND time < 20")
	if err != nil {
		t.Fatal(err)
	}
	if st.MinTime != 11 || st.MaxTime != 19 {
		t.Fatalf("strict bounds wrong: %+v", st)
	}
	st, err = Parse("SELECT * FROM s WHERE time = 7")
	if err != nil {
		t.Fatal(err)
	}
	if st.MinTime != 7 || st.MaxTime != 7 {
		t.Fatalf("equality bounds wrong: %+v", st)
	}
}

func TestParseSelectUnbounded(t *testing.T) {
	st, err := Parse("SELECT * FROM s")
	if err != nil {
		t.Fatal(err)
	}
	if st.MinTime != math.MinInt64 || st.MaxTime != math.MaxInt64 {
		t.Fatalf("default bounds wrong: %+v", st)
	}
}

func TestParseAggregation(t *testing.T) {
	st, err := Parse("SELECT avg(value) FROM s WHERE time >= 0 AND time <= 99 GROUP BY window(10)")
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasAgg || st.Agg != query.Avg || st.Window != 10 {
		t.Fatalf("%+v", st)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"DROP TABLE s",
		"INSERT INTO VALUES (1,2)",
		"INSERT INTO s VALUES (1)",
		"INSERT INTO s VALUES (1, 2) garbage",
		"SELECT FROM s",
		"SELECT avg(value) FROM s",           // agg without window
		"SELECT * FROM s GROUP BY window(5)", // window without agg
		"SELECT * FROM s WHERE value > 3",    // non-time predicate
		"SELECT median(value) FROM s GROUP BY window(5)", // unknown agg
		"SELECT * FROM",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

func TestExecuteInsertSelectRoundTrip(t *testing.T) {
	r := testRouter(t)
	if _, err := Run(r, "INSERT INTO s VALUES (5, 50), (1, 10), (3, 30)"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(r, "SELECT * FROM s WHERE time >= 1 AND time <= 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 || res.Rows[0][0] != "1" || res.Rows[2][1] != "50" {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestExecuteLimit(t *testing.T) {
	r := testRouter(t)
	Run(r, "INSERT INTO s VALUES (1,1), (2,2), (3,3), (4,4)")
	res, err := Run(r, "SELECT * FROM s LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("limit ignored: %+v", res.Rows)
	}
}

func TestExecuteAggregation(t *testing.T) {
	r := testRouter(t)
	Run(r, "INSERT INTO s VALUES (0,2), (5,4), (12,10)")
	res, err := Run(r, "SELECT avg(value) FROM s WHERE time >= 0 AND time <= 19 GROUP BY WINDOW(10)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1] != "3" || res.Rows[1][1] != "10" {
		t.Fatalf("agg rows = %+v", res.Rows)
	}
}

func TestExecuteFlushCompactStats(t *testing.T) {
	r := testRouter(t)
	for i := 0; i < 250; i++ {
		if _, err := Run(r, "INSERT INTO s VALUES ("+strconv.Itoa(i)+", 1)"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Run(r, "FLUSH"); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(r, "COMPACT"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(r, "STATS")
	if err != nil {
		t.Fatal(err)
	}
	// One aggregate row, then one row for the single shard.
	if len(res.Rows) != 2 || len(res.Columns) != 8 || res.Rows[0][0] != "all" || res.Rows[1][0] != "0" {
		t.Fatalf("stats = %+v", res)
	}
	// After compaction exactly one file remains.
	if res.Rows[0][6] != "1" || res.Rows[1][6] != "1" {
		t.Fatalf("files column = %q / %q", res.Rows[0][6], res.Rows[1][6])
	}
	// And the data survives.
	sel, err := Run(r, "SELECT * FROM s")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Rows) != 250 {
		t.Fatalf("rows after compact = %d", len(sel.Rows))
	}
}
