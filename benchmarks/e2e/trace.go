package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/shard"
	"repro/internal/winagg"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Op, the ID of its client span; Parent is the span that caused
// this one, 0 for a request's first span and for background work
// (flush, compaction, the WAL's interval fsync) nobody asked for.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`             // layer.what, e.g. engine.insert
	Points int64  `json:"points,omitempty"` // client spans: points the op moved
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// link is what a child needs to attach itself to a request. suffix,
// when set, is appended to the child's span name: the interposer
// cannot tell an aggregation the client expects to be answered from
// statistics from one that must decode, but the client can.
type link struct {
	parent, op uint64
	suffix     string
}

// opKey identifies a backend call by its arguments, which is all the
// interposer behind the front end can see of the request that caused
// it: the sensor and, for a write, its first timestamp and length; for
// a read, its range.
type opKey struct {
	kind   byte
	sensor string
	a, b   int64
}

// tracer keeps spans in memory until the workload ends. Recording is
// switched on and off in slices of the measured phase, so one run
// yields the throughput with and without it.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Uint64

	mu       sync.Mutex
	spans    []span
	expected map[opKey]link
	// inserting maps a sensor to the backend insert running for it, so
	// the WAL write made underneath finds its parent (see
	// walRecordSensor). The workloads never have two inserts for one
	// sensor in flight.
	inserting map[string]link
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), expected: map[opKey]link{}, inserting: map[string]link{}}
}

func (t *tracer) id() uint64 { return t.nextID.Add(1) }

func (t *tracer) since() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// expect announces the backend calls a request is about to cause.
func (t *tracer) expect(l link, keys ...opKey) {
	t.mu.Lock()
	for _, k := range keys {
		t.expected[k] = l
	}
	t.mu.Unlock()
}

func (t *tracer) forget(keys ...opKey) {
	t.mu.Lock()
	for _, k := range keys {
		delete(t.expected, k)
	}
	t.mu.Unlock()
}

// within times fn as a span named name, child of the request expected
// under key (a root when nobody announced it). An insert is also made
// the parent of the WAL write fn issues for its sensor.
func (t *tracer) within(name string, key opKey, fn func()) {
	if !t.on.Load() {
		fn()
		return
	}
	isInsert := key.kind == 'w'
	t.mu.Lock()
	l := t.expected[key]
	s := span{ID: t.id(), Parent: l.parent, Op: l.op, Name: name + l.suffix}
	if s.Op == 0 {
		s.Op = s.ID
	}
	if isInsert {
		t.inserting[key.sensor] = link{parent: s.ID, op: s.Op}
	}
	t.mu.Unlock()
	s.Start = t.since()
	fn()
	s.End = t.since()
	t.mu.Lock()
	if isInsert {
		delete(t.inserting, key.sensor)
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// insertOf returns the backend insert a WAL record belongs to, by the
// sensor the record names; the zero link when none is being traced.
func (t *tracer) insertOf(walRecord []byte) link {
	sensor := walRecordSensor(walRecord)
	if sensor == nil {
		return link{}
	}
	t.mu.Lock()
	l := t.inserting[string(sensor)]
	t.mu.Unlock()
	return l
}

// walRecordSensor reads the sensor name off the head of a WAL record as
// internal/wal documents it: uint32 payload length, then the payload,
// which starts with the sensor as a uvarint-prefixed string. This is
// how a filesystem call is tied to the request above it without help
// from the engine; asking the runtime which goroutine is running costs
// ~10 µs on the server's stack, a tenth of ingest_ooo's throughput. If
// the record layout changes the lookup misses, the WAL spans become
// roots, and the smoke test says so.
func walRecordSensor(rec []byte) []byte {
	if len(rec) < 5 {
		return nil
	}
	n, k := binary.Uvarint(rec[4:])
	if k <= 0 || uint64(len(rec)-4-k) < n {
		return nil
	}
	return rec[4+k : 4+k+int(n)]
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedBackend sits between the front ends and the router. Embedding
// the router keeps every other method (LatestTime, Stats, StatsAll,
// Flush, the series calls) reachable, so statistics pushdown and the
// per-shard stats payload work as they do without it.
type tracedBackend struct {
	*shard.Router
	tr *tracer
}

func (b *tracedBackend) InsertBatch(sensor string, times []int64, values []float64) (err error) {
	var first int64
	if len(times) > 0 {
		first = times[0]
	}
	b.tr.within("engine.insert", opKey{'w', sensor, first, int64(len(times))}, func() {
		err = b.Router.InsertBatch(sensor, times, values)
	})
	return err
}

func (b *tracedBackend) Query(sensor string, minT, maxT int64) (out []engine.TV, err error) {
	b.tr.within("engine.query", opKey{'q', sensor, minT, maxT}, func() {
		out, err = b.Router.Query(sensor, minT, maxT)
	})
	return out, err
}

func (b *tracedBackend) AggregateWindows(sensor string, startT, endT, window int64, op winagg.Op) (out []winagg.Window, err error) {
	b.tr.within("engine.agg", opKey{'a', sensor, startT, endT}, func() {
		out, err = b.Router.AggregateWindows(sensor, startT, endT, window, op)
	})
	return out, err
}

// summary is what the traced run reports from its spans.
type spanSummary struct {
	count map[string]int64   // spans by name
	total map[string]float64 // summed duration by name, seconds
	self  map[string]float64 // summed duration minus children, by name, seconds
}

// summarize computes each span's self time: its duration minus the
// part of it that its children cover. Children of one parent can
// overlap (a body's inserts never do, but nothing forbids it), so the
// covered part is the union of their intervals clipped to the parent.
func summarize(spans []span) spanSummary {
	sum := spanSummary{count: map[string]int64{}, total: map[string]float64{}, self: map[string]float64{}}
	children := map[uint64][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for _, s := range spans {
		dur := s.End - s.Start
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			a, b := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if b > a {
				covered += b - a
				edge = b
			}
		}
		sum.count[s.Name]++
		sum.total[s.Name] += float64(dur) / 1e9
		sum.self[s.Name] += float64(dur-covered) / 1e9
	}
	return sum
}

// layerOf returns the layer part of a span name.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
