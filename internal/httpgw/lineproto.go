// Package httpgw is the HTTP ingest gateway: an InfluxDB-style
// line-protocol write endpoint, a windowed-aggregation query
// endpoint, and a stats endpoint, all in front of the same storage
// backend the binary RPC server fronts. Writes pass through the same
// bounded dispatch queue as pipelined RPC inserts, so the system has
// exactly one overload policy — a full queue rejects the HTTP request
// with 429 Too Many Requests and a Retry-After hint, precisely when
// the RPC path would answer StatusOverloaded.
package httpgw

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/tsfile"
)

// Point is one parsed line-protocol sample, flattened to the
// engine's (sensor, time, value) model.
type Point struct {
	Sensor string
	T      int64
	V      float64
}

// ParseLineProtocol parses an InfluxDB-style line-protocol payload:
//
//	measurement[,tag=value...] field=value[,field=value...] [timestamp]
//
// one sample per line. Each (measurement, tags, field) triple becomes
// one engine sensor named
//
//	measurement[,tag=value...].field
//
// with the tags sorted by name, so the same series key arrives at the
// same sensor no matter what order the client listed its tags in.
// Values are floats, or integers with the line-protocol 'i' suffix;
// timestamps are UNIX nanoseconds, defaulting to now() when absent.
// Backslash escapes ('\ ', '\,', '\=') are honored in measurement,
// tag and field names and tag values. Blank lines and '#' comment
// lines are skipped. A malformed line — including one whose sensor
// name exceeds tsfile.MaxSensorName — fails the whole payload with an
// error naming the line, so partial writes never slip in silently.
func ParseLineProtocol(data []byte, now func() int64) ([]Point, error) {
	var out []Point
	lineNo := 0
	for len(data) > 0 {
		lineNo++
		var line string
		if i := indexByte(data, '\n'); i >= 0 {
			line, data = string(data[:i]), data[i+1:]
		} else {
			line, data = string(data), nil
		}
		line = strings.TrimRight(line, "\r")
		if strings.TrimSpace(line) == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pts, err := parseLine(line, now)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, pts...)
	}
	return out, nil
}

func indexByte(b []byte, c byte) int {
	for i := range b {
		if b[i] == c {
			return i
		}
	}
	return -1
}

// parseLine parses one non-empty line into one Point per field.
func parseLine(line string, now func() int64) ([]Point, error) {
	sections := splitUnescaped(line, ' ')
	// Collapse runs of spaces between sections (but a space inside an
	// escaped identifier was already protected by splitUnescaped).
	nonEmpty := sections[:0]
	for _, s := range sections {
		if s != "" {
			nonEmpty = append(nonEmpty, s)
		}
	}
	sections = nonEmpty
	if len(sections) < 2 || len(sections) > 3 {
		return nil, fmt.Errorf("expected 'measurement[,tags] fields [timestamp]', got %d sections", len(sections))
	}

	series, err := parseSeriesKey(sections[0])
	if err != nil {
		return nil, err
	}

	ts := int64(0)
	if len(sections) == 3 {
		ts, err = strconv.ParseInt(sections[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad timestamp %q", sections[2])
		}
	} else {
		ts = now()
	}

	fields := splitUnescaped(sections[1], ',')
	if len(fields) == 0 {
		return nil, fmt.Errorf("no fields")
	}
	pts := make([]Point, 0, len(fields))
	for _, f := range fields {
		eq := splitUnescaped(f, '=')
		if len(eq) != 2 || eq[0] == "" {
			return nil, fmt.Errorf("bad field %q", f)
		}
		v, err := parseFieldValue(eq[1])
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", unescape(eq[0]), err)
		}
		sensor := series + "." + unescape(eq[0])
		if len(sensor) > tsfile.MaxSensorName {
			return nil, fmt.Errorf("sensor name is %d bytes, the limit is %d", len(sensor), tsfile.MaxSensorName)
		}
		pts = append(pts, Point{Sensor: sensor, T: ts, V: v})
	}
	return pts, nil
}

// parseSeriesKey normalizes "measurement[,tag=value...]" into the
// sensor prefix: tags are sorted by name so tag order never splits a
// series.
func parseSeriesKey(s string) (string, error) {
	parts := splitUnescaped(s, ',')
	if parts[0] == "" {
		return "", fmt.Errorf("empty measurement")
	}
	measurement := unescape(parts[0])
	if len(parts) == 1 {
		return measurement, nil
	}
	type kv struct{ k, v string }
	tags := make([]kv, 0, len(parts)-1)
	for _, p := range parts[1:] {
		eq := splitUnescaped(p, '=')
		if len(eq) != 2 || eq[0] == "" || eq[1] == "" {
			return "", fmt.Errorf("bad tag %q", p)
		}
		tags = append(tags, kv{unescape(eq[0]), unescape(eq[1])})
	}
	sort.Slice(tags, func(a, b int) bool { return tags[a].k < tags[b].k })
	var b strings.Builder
	b.WriteString(measurement)
	for i, t := range tags {
		if i > 0 && tags[i-1].k == t.k {
			return "", fmt.Errorf("duplicate tag %q", t.k)
		}
		b.WriteByte(',')
		b.WriteString(t.k)
		b.WriteByte('=')
		b.WriteString(t.v)
	}
	return b.String(), nil
}

// parseFieldValue accepts a float, or a line-protocol integer with
// the trailing 'i'. Strings and booleans have no home in a
// float-valued engine and are rejected.
func parseFieldValue(s string) (float64, error) {
	if s == "" {
		return 0, fmt.Errorf("empty value")
	}
	if strings.HasSuffix(s, "i") {
		n, err := strconv.ParseInt(s[:len(s)-1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad integer %q", s)
		}
		return float64(n), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q (floats and 'i'-suffixed integers only)", s)
	}
	return v, nil
}

// splitUnescaped splits s on sep, treating backslash-escaped bytes
// (including escaped separators) as literal content. The escape
// sequences themselves are preserved — unescape strips them later —
// so nested splits on different separators stay correct.
func splitUnescaped(s string, sep byte) []string {
	var parts []string
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip the escaped byte
		case sep:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	return append(parts, s[start:])
}

// unescape strips line-protocol backslash escapes.
func unescape(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
