// Package tsql implements the tiny SQL-ish query language of the
// cmd/tsql shell — enough surface to drive the storage engine the way
// the paper's experiments do (IoTDB is operated through SQL, and the
// benchmark's query is literally "SELECT * FROM data WHERE time >
// current - window"):
//
//	INSERT INTO <sensor> VALUES (t, v) [, (t, v)]...
//	INSERT INTO series{host="a", metric="cpu"} VALUES (t, v)...
//	SELECT * FROM <sensor> [WHERE time >= a AND time <= b] [LIMIT n]
//	SELECT * FROM series{host="a", region=~"west-.*"} [WHERE ...]
//	SELECT avg|sum|min|max|count|first|last(value) FROM <sensor>
//	       [WHERE ...] GROUP BY WINDOW(w)
//	FLUSH | COMPACT | STATS
//
// The series{...} form addresses series by label selector: `=` and
// `!=` compare values exactly, `=~` and `!~` match anchored regular
// expressions, and an empty selector `series{}` means every registered
// series. Selector selects return (series, time, value) rows; selector
// aggregations merge all matching series into one cross-series result
// per window.
//
// Statements parse into a Statement tree and execute against the
// shard router; parsing and execution are separate so both are
// testable.
package tsql

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/labels"
	"repro/internal/query"
	"repro/internal/shard"
)

// Statement is a parsed statement.
type Statement struct {
	Kind   Kind
	Sensor string
	// Insert rows.
	Times  []int64
	Values []float64
	// Select bounds (inclusive), defaulting to the full range.
	MinTime int64
	MaxTime int64
	Limit   int // 0 = unlimited
	// Aggregation.
	Agg    query.Aggregator
	HasAgg bool
	Window int64
	// Label selector (the series{...} form). HasSelector distinguishes
	// an empty selector (all series) from the flat-sensor form.
	HasSelector bool
	Matchers    []*labels.Matcher
	// LabelSet is the concrete label set of INSERT INTO series{...}
	// (equality-only selectors name exactly one series).
	LabelSet labels.Set
}

// Kind discriminates statements.
type Kind int

// Statement kinds.
const (
	KindSelect Kind = iota
	KindInsert
	KindFlush
	KindCompact
	KindStats
)

// stringMarker prefixes decoded string-literal tokens so the parser
// can tell `"select"` (a quoted value) from the SELECT keyword; \x00
// cannot appear in source text, so no identifier collides with it.
const stringMarker = "\x00"

// tokenize scans one statement into tokens. Quoted string literals
// (single or double quotes, backslash escapes) pass through intact —
// `host="a=b"` is three tokens, not a mangled five — fixing the old
// splitter that blindly padded every operator character. Two-char
// operators (<= >= != =~ !~) are scanned before their one-char
// prefixes.
func tokenize(s string) ([]string, error) {
	var out []string
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '"' || c == '\'':
			quote := c
			var lit []byte
			j := i + 1
			for {
				if j >= len(s) {
					return nil, fmt.Errorf("tsql: unterminated string literal starting at column %d", i+1)
				}
				if s[j] == '\\' {
					if j+1 >= len(s) {
						return nil, fmt.Errorf("tsql: trailing backslash in string literal")
					}
					lit = append(lit, s[j+1])
					j += 2
					continue
				}
				if s[j] == quote {
					break
				}
				lit = append(lit, s[j])
				j++
			}
			out = append(out, stringMarker+string(lit))
			i = j + 1
		case i+1 < len(s) && (s[i:i+2] == "<=" || s[i:i+2] == ">=" || s[i:i+2] == "!=" || s[i:i+2] == "=~" || s[i:i+2] == "!~"):
			out = append(out, s[i:i+2])
			i += 2
		case strings.IndexByte("(),=<>*{}", c) >= 0:
			out = append(out, string(c))
			i++
		default:
			j := i
			for j < len(s) && strings.IndexByte(" \t\n\r\"'(),=<>*{}", s[j]) < 0 &&
				!(j+1 < len(s) && (s[j:j+2] == "!=" || s[j:j+2] == "!~")) {
				j++
			}
			if j == i {
				return nil, fmt.Errorf("tsql: unexpected character %q at column %d", c, i+1)
			}
			out = append(out, s[i:j])
			i = j
		}
	}
	return out, nil
}

// parser walks the token slice.
type parser struct {
	toks []string
	pos  int
}

func (p *parser) peek() string {
	if p.pos >= len(p.toks) {
		return ""
	}
	return strings.ToUpper(p.toks[p.pos])
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) raw() string {
	if p.pos >= len(p.toks) {
		return ""
	}
	t := p.toks[p.pos]
	p.pos++
	return t
}

// isString reports whether tok is a decoded string literal.
func isString(tok string) bool { return strings.HasPrefix(tok, stringMarker) }

// text returns a token's source text: string literals decode to their
// contents, everything else passes through.
func text(tok string) string { return strings.TrimPrefix(tok, stringMarker) }

func (p *parser) expect(tok string) error {
	if got := p.next(); got != tok {
		return fmt.Errorf("tsql: expected %s, got %q", tok, got)
	}
	return nil
}

func (p *parser) int64() (int64, error) {
	raw := p.raw()
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("tsql: expected integer, got %q", raw)
	}
	return v, nil
}

func (p *parser) float64() (float64, error) {
	raw := p.raw()
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("tsql: expected number, got %q", raw)
	}
	return v, nil
}

// Parse parses one statement.
func Parse(input string) (*Statement, error) {
	toks, err := tokenize(strings.TrimSuffix(strings.TrimSpace(input), ";"))
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	switch p.next() {
	case "INSERT":
		return p.parseInsert()
	case "SELECT":
		return p.parseSelect()
	case "FLUSH":
		return &Statement{Kind: KindFlush}, nil
	case "COMPACT":
		return &Statement{Kind: KindCompact}, nil
	case "STATS":
		return &Statement{Kind: KindStats}, nil
	case "":
		return nil, fmt.Errorf("tsql: empty statement")
	default:
		return nil, fmt.Errorf("tsql: unknown statement %q", p.toks[0])
	}
}

func (p *parser) parseInsert() (*Statement, error) {
	st := &Statement{Kind: KindInsert}
	if err := p.expect("INTO"); err != nil {
		return nil, err
	}
	if err := p.parseTarget(st); err != nil {
		return nil, err
	}
	if st.HasSelector {
		// Writes address exactly one series: every term must be an
		// equality with a non-empty value.
		ls := make([]labels.Label, 0, len(st.Matchers))
		for _, m := range st.Matchers {
			if m.Type != labels.MatchEq || m.Value == "" {
				return nil, fmt.Errorf("tsql: INSERT selector terms must be label=\"value\", got %s", m)
			}
			ls = append(ls, labels.Label{Name: m.Name, Value: m.Value})
		}
		set, err := labels.New(ls...)
		if err != nil {
			return nil, fmt.Errorf("tsql: %w", err)
		}
		st.LabelSet = set
	}
	if err := p.expect("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		t, err := p.int64()
		if err != nil {
			return nil, err
		}
		if err := p.expect(","); err != nil {
			return nil, err
		}
		v, err := p.float64()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		st.Times = append(st.Times, t)
		st.Values = append(st.Values, v)
		if p.peek() != "," {
			break
		}
		p.next()
	}
	if p.peek() != "" {
		return nil, fmt.Errorf("tsql: trailing tokens after INSERT")
	}
	return st, nil
}

func (p *parser) parseSelect() (*Statement, error) {
	st := &Statement{Kind: KindSelect, MinTime: math.MinInt64, MaxTime: math.MaxInt64}
	switch p.peek() {
	case "*":
		p.next()
	case "AVG", "SUM", "MIN", "MAX", "COUNT", "FIRST", "LAST":
		name := p.next()
		st.HasAgg = true
		st.Agg = map[string]query.Aggregator{
			"AVG": query.Avg, "SUM": query.Sum, "MIN": query.Min, "MAX": query.Max,
			"COUNT": query.Count, "FIRST": query.First, "LAST": query.Last,
		}[name]
		if err := p.expect("("); err != nil {
			return nil, err
		}
		if got := p.next(); got != "VALUE" {
			return nil, fmt.Errorf("tsql: aggregations take value, got %q", got)
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("tsql: SELECT needs * or an aggregation, got %q", p.peek())
	}
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	if err := p.parseTarget(st); err != nil {
		return nil, err
	}
	for {
		switch p.peek() {
		case "":
			return p.finishSelect(st)
		case "WHERE", "AND":
			p.next()
			if err := p.parseTimePredicate(st); err != nil {
				return nil, err
			}
		case "GROUP":
			p.next()
			if err := p.expect("BY"); err != nil {
				return nil, err
			}
			if got := p.next(); got != "WINDOW" {
				return nil, fmt.Errorf("tsql: GROUP BY supports WINDOW(w), got %q", got)
			}
			if err := p.expect("("); err != nil {
				return nil, err
			}
			w, err := p.int64()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			st.Window = w
		case "LIMIT":
			p.next()
			n, err := p.int64()
			if err != nil {
				return nil, err
			}
			st.Limit = int(n)
		default:
			return nil, fmt.Errorf("tsql: unexpected token %q", p.peek())
		}
	}
}

func (p *parser) parseTimePredicate(st *Statement) error {
	if got := p.next(); got != "TIME" {
		return fmt.Errorf("tsql: predicates are on time, got %q", got)
	}
	op := p.next()
	v, err := p.int64()
	if err != nil {
		return err
	}
	// Strict comparators are normalized to the inclusive [MinTime,
	// MaxTime] the engine scans (aggregations later convert to the
	// half-open [startT, endT) convention of query.WindowQuery). At the
	// int64 extremes the ±1 normalization would wrap around and turn an
	// empty predicate into a full scan, so those collapse to a
	// statically empty range instead.
	switch op {
	case ">":
		if v == math.MaxInt64 {
			st.MinTime, st.MaxTime = math.MaxInt64, math.MinInt64
		} else {
			st.MinTime = v + 1
		}
	case ">=":
		st.MinTime = v
	case "<":
		if v == math.MinInt64 {
			st.MinTime, st.MaxTime = math.MaxInt64, math.MinInt64
		} else {
			st.MaxTime = v - 1
		}
	case "<=":
		st.MaxTime = v
	case "=":
		st.MinTime, st.MaxTime = v, v
	default:
		return fmt.Errorf("tsql: unsupported comparator %q", op)
	}
	return nil
}

// parseTarget parses the table position of FROM/INTO: either a flat
// sensor name (quoting allowed, so operator characters survive) or the
// series{...} selector form. An unquoted sensor literally named
// "series" without a following brace still parses as a flat sensor.
func (p *parser) parseTarget(st *Statement) error {
	tok := p.raw()
	if tok == "" {
		return fmt.Errorf("tsql: missing sensor name")
	}
	if !isString(tok) && strings.EqualFold(tok, "series") && p.peek() == "{" {
		return p.parseSelector(st)
	}
	st.Sensor = text(tok)
	return nil
}

// parseSelector parses {name op value, ...} into matchers. The empty
// selector {} selects every registered series.
func (p *parser) parseSelector(st *Statement) error {
	st.HasSelector = true
	p.next() // consume "{"
	if p.peek() == "}" {
		p.next()
		return nil
	}
	for {
		nameTok := p.raw()
		if nameTok == "" || nameTok == "}" || nameTok == "," {
			return fmt.Errorf("tsql: missing label name in selector")
		}
		var mt labels.MatchType
		switch op := p.next(); op {
		case "=":
			mt = labels.MatchEq
		case "!=":
			mt = labels.MatchNotEq
		case "=~":
			mt = labels.MatchRe
		case "!~":
			mt = labels.MatchNotRe
		default:
			return fmt.Errorf("tsql: selector operator must be = != =~ or !~, got %q", op)
		}
		valTok := p.raw()
		if valTok == "" || (!isString(valTok) && strings.ContainsAny(valTok, "{}(),=<>*")) {
			return fmt.Errorf("tsql: missing label value in selector")
		}
		m, err := labels.NewMatcher(mt, text(nameTok), text(valTok))
		if err != nil {
			return fmt.Errorf("tsql: %w", err)
		}
		st.Matchers = append(st.Matchers, m)
		switch p.next() {
		case ",":
		case "}":
			return nil
		default:
			return fmt.Errorf("tsql: selector terms must be separated by ',' and closed by '}'")
		}
	}
}

func (p *parser) finishSelect(st *Statement) (*Statement, error) {
	if st.HasAgg && st.Window <= 0 {
		return nil, fmt.Errorf("tsql: aggregations need GROUP BY WINDOW(w)")
	}
	if !st.HasAgg && st.Window > 0 {
		return nil, fmt.Errorf("tsql: GROUP BY WINDOW needs an aggregation")
	}
	return st, nil
}

// Result is a statement's tabular output.
type Result struct {
	Columns []string
	Rows    [][]string
	Message string // for statements without rows
}

// Execute runs a parsed statement against the router.
func Execute(r *shard.Router, st *Statement) (*Result, error) {
	switch st.Kind {
	case KindInsert:
		if st.HasSelector {
			if err := r.InsertSeries(st.LabelSet, st.Times, st.Values); err != nil {
				return nil, err
			}
			return &Result{Message: fmt.Sprintf("inserted %d points into %s", len(st.Times), st.LabelSet)}, nil
		}
		if err := r.InsertBatch(st.Sensor, st.Times, st.Values); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("inserted %d points", len(st.Times))}, nil

	case KindFlush:
		r.Flush()
		return &Result{Message: "flushed"}, nil

	case KindCompact:
		if err := r.Compact(); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("compacted to %d file(s)", r.FileCount())}, nil

	case KindStats:
		// One aggregate row, then the per-shard breakdown from the same
		// collection pass.
		merged, per := r.StatsAll()
		res := &Result{
			Columns: []string{"shard", "flushes", "avg_flush_ms", "avg_sort_ms", "seq_points", "unseq_points", "files", "memtable_points"},
			Rows:    [][]string{append([]string{"all"}, statsRow(merged)...)},
		}
		for i, s := range per {
			res.Rows = append(res.Rows, append([]string{strconv.Itoa(i)}, statsRow(s)...))
		}
		return res, nil

	case KindSelect:
		if st.HasAgg {
			res := &Result{Columns: []string{"window_start", st.Agg.String() + "(value)", "count"}}
			if st.MinTime > st.MaxTime {
				return res, nil // statically empty predicate
			}
			// The inclusive [MinTime, MaxTime] predicate becomes
			// WindowQuery's half-open [startT, endT): the end bound is
			// exclusive, so time <= T queries endT = T+1.
			endT := st.MaxTime
			if endT != math.MaxInt64 {
				endT++
			}
			startT := st.MinTime
			if startT == math.MinInt64 {
				startT = 0
			}
			var wins []query.WindowResult
			var err error
			if st.HasSelector {
				// Cross-series GROUP BY WINDOW: every matching series
				// aggregates in parallel, windows merge per start.
				wins, err = r.AggregateSeriesGroup(st.Matchers, startT, endT, st.Window, st.Agg)
			} else {
				wins, err = query.WindowQuery(r, st.Sensor, startT, endT, st.Window, st.Agg)
			}
			if err != nil {
				return nil, err
			}
			for _, w := range wins {
				res.Rows = append(res.Rows, []string{
					strconv.FormatInt(w.Start, 10),
					strconv.FormatFloat(w.Value, 'g', -1, 64),
					strconv.Itoa(w.Count),
				})
			}
			return res, nil
		}
		if st.HasSelector {
			sps, err := r.QuerySeries(st.Matchers, st.MinTime, st.MaxTime)
			if err != nil {
				return nil, err
			}
			// Deterministic output: series in canonical order, points in
			// time order within each; LIMIT caps the flattened rows.
			shard.SortSeriesByCanonical(sps)
			res := &Result{Columns: []string{"series", "time", "value"}}
			for _, sp := range sps {
				for _, tv := range sp.Points {
					if st.Limit > 0 && len(res.Rows) >= st.Limit {
						return res, nil
					}
					res.Rows = append(res.Rows, []string{
						sp.Labels.String(),
						strconv.FormatInt(tv.T, 10),
						strconv.FormatFloat(tv.V, 'g', -1, 64),
					})
				}
			}
			return res, nil
		}
		out, err := r.Query(st.Sensor, st.MinTime, st.MaxTime)
		if err != nil {
			return nil, err
		}
		if st.Limit > 0 && len(out) > st.Limit {
			out = out[:st.Limit]
		}
		res := &Result{Columns: []string{"time", "value"}}
		for _, tv := range out {
			res.Rows = append(res.Rows, []string{
				strconv.FormatInt(tv.T, 10),
				strconv.FormatFloat(tv.V, 'g', -1, 64),
			})
		}
		return res, nil

	default:
		return nil, fmt.Errorf("tsql: unknown statement kind %d", st.Kind)
	}
}

// statsRow renders the shared STATS columns for one snapshot.
func statsRow(s engine.Stats) []string {
	return []string{
		strconv.Itoa(s.FlushCount),
		fmt.Sprintf("%.3f", s.AvgFlushMillis),
		fmt.Sprintf("%.3f", s.AvgSortMillis),
		strconv.FormatInt(s.SeqPoints, 10),
		strconv.FormatInt(s.UnseqPoints, 10),
		strconv.Itoa(s.Files),
		strconv.Itoa(s.MemTablePoints),
	}
}

// Run parses and executes one statement.
func Run(r *shard.Router, input string) (*Result, error) {
	st, err := Parse(input)
	if err != nil {
		return nil, err
	}
	return Execute(r, st)
}
