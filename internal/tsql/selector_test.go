package tsql

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/labels"
	"repro/internal/shard"
)

// TestTokenizeQuotedLiterals is the regression for the old splitter,
// which padded every operator character and mangled quoted values like
// host="a=b" into five tokens.
func TestTokenizeQuotedLiterals(t *testing.T) {
	toks, err := tokenize(`host="a=b"`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"host", "=", stringMarker + "a=b"}
	if !reflect.DeepEqual(toks, want) {
		t.Fatalf("tokenize: %q, want %q", toks, want)
	}
	toks, err = tokenize(`x='a,(b)<c>' <= 5`)
	if err != nil {
		t.Fatal(err)
	}
	want = []string{"x", "=", stringMarker + "a,(b)<c>", "<=", "5"}
	if !reflect.DeepEqual(toks, want) {
		t.Fatalf("tokenize: %q, want %q", toks, want)
	}
	// Escapes inside literals.
	toks, err = tokenize(`"a\"b\\c"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || text(toks[0]) != `a"b\c` {
		t.Fatalf("escaped literal: %q", toks)
	}
	// Unterminated literal is a parse error, not a mangled token soup.
	if _, err := tokenize(`host="abc`); err == nil {
		t.Fatal("unterminated literal accepted")
	}
	// A quoted keyword is a value, not a keyword.
	st, err := Parse(`SELECT * FROM "select"`)
	if err != nil || st.Sensor != "select" {
		t.Fatalf("quoted sensor: %+v err=%v", st, err)
	}
}

func TestParseSelector(t *testing.T) {
	st, err := Parse(`SELECT * FROM series{host="a", region=~"west-.*", dc!="x", rack!~"r[0-9]"} WHERE time >= 5 AND time <= 10 LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if !st.HasSelector || len(st.Matchers) != 4 {
		t.Fatalf("selector: %+v", st)
	}
	wantOps := []labels.MatchType{labels.MatchEq, labels.MatchRe, labels.MatchNotEq, labels.MatchNotRe}
	for i, m := range st.Matchers {
		if m.Type != wantOps[i] {
			t.Fatalf("matcher %d type %v, want %v", i, m.Type, wantOps[i])
		}
	}
	if st.Matchers[0].Name != "host" || st.Matchers[0].Value != "a" {
		t.Fatalf("matcher 0: %+v", st.Matchers[0])
	}
	if st.MinTime != 5 || st.MaxTime != 10 || st.Limit != 3 {
		t.Fatalf("bounds: %+v", st)
	}

	// Empty selector = all series.
	st, err = Parse(`SELECT * FROM series{}`)
	if err != nil || !st.HasSelector || len(st.Matchers) != 0 {
		t.Fatalf("empty selector: %+v err=%v", st, err)
	}

	// Bare (unquoted) values parse too.
	st, err = Parse(`SELECT * FROM series{host=a1}`)
	if err != nil || st.Matchers[0].Value != "a1" {
		t.Fatalf("bare value: %+v err=%v", st, err)
	}

	// A sensor literally named series still works flat.
	st, err = Parse(`SELECT * FROM series`)
	if err != nil || st.HasSelector || st.Sensor != "series" {
		t.Fatalf("flat 'series' sensor: %+v err=%v", st, err)
	}

	// INSERT selector must be equality-only.
	if _, err := Parse(`INSERT INTO series{host=~"a.*"} VALUES (1, 2)`); err == nil {
		t.Fatal("regex INSERT selector accepted")
	}
	st, err = Parse(`INSERT INTO series{host="a", metric="cpu"} VALUES (1, 2)`)
	if err != nil || st.LabelSet.Canonical() != "host=a,metric=cpu" {
		t.Fatalf("insert selector: %+v err=%v", st, err)
	}
}

func TestParseSelectorErrors(t *testing.T) {
	for _, bad := range []string{
		`SELECT * FROM series{host}`,
		`SELECT * FROM series{host="a"`,
		`SELECT * FROM series{host<"a"}`,
		`SELECT * FROM series{="a"}`,
		`SELECT * FROM series{host="a",}`,
		`SELECT * FROM series{host=~"("}`, // invalid regex
		`INSERT INTO series{} VALUES (1, 2)`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("accepted: %s", bad)
		}
	}
}

func routerEngine(t *testing.T) *shard.Router {
	t.Helper()
	r, err := shard.Open(shard.Config{
		Config:     engine.Config{Dir: t.TempDir(), MemTableSize: 128},
		ShardCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestExecuteSelector(t *testing.T) {
	r := routerEngine(t)
	mustRun := func(q string) *Result {
		t.Helper()
		res, err := Run(r, q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res
	}
	mustRun(`INSERT INTO series{host="a", metric="cpu"} VALUES (1, 10), (2, 20)`)
	mustRun(`INSERT INTO series{host="b", metric="cpu"} VALUES (1, 100)`)
	mustRun(`INSERT INTO series{host="a", metric="mem"} VALUES (1, 5)`)

	res := mustRun(`SELECT * FROM series{metric="cpu"}`)
	if !reflect.DeepEqual(res.Columns, []string{"series", "time", "value"}) {
		t.Fatalf("columns: %v", res.Columns)
	}
	want := [][]string{
		{`{host="a",metric="cpu"}`, "1", "10"},
		{`{host="a",metric="cpu"}`, "2", "20"},
		{`{host="b",metric="cpu"}`, "1", "100"},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("rows: %v", res.Rows)
	}

	// LIMIT applies to flattened rows.
	if res := mustRun(`SELECT * FROM series{metric="cpu"} LIMIT 2`); len(res.Rows) != 2 {
		t.Fatalf("limit: %v", res.Rows)
	}

	// Non-matching selector: empty result, not an error.
	if res := mustRun(`SELECT * FROM series{host="zzz"}`); len(res.Rows) != 0 {
		t.Fatalf("non-matching selector: %v", res.Rows)
	}

	// Cross-series aggregation merges all matching series per window.
	res = mustRun(`SELECT sum(value) FROM series{metric="cpu"} WHERE time >= 0 AND time <= 9 GROUP BY WINDOW(10)`)
	if len(res.Rows) != 1 || res.Rows[0][1] != "130" || res.Rows[0][2] != "3" {
		t.Fatalf("group sum: %v", res.Rows)
	}
	res = mustRun(`SELECT avg(value) FROM series{}  GROUP BY WINDOW(10)`)
	if len(res.Rows) != 1 || res.Rows[0][1] != "33.75" { // (10+20+100+5)/4
		t.Fatalf("group avg: %v", res.Rows)
	}

	// First/Last cannot merge across series.
	if _, err := Run(r, `SELECT first(value) FROM series{} GROUP BY WINDOW(10)`); err == nil {
		t.Fatal("first over selector accepted")
	}
}
