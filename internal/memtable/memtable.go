// Package memtable implements the in-memory write buffer of the
// storage engine, mirroring Apache IoTDB's design (Section V-A of the
// paper): a MemTable holds one chunk per sensor, each chunk wrapping a
// TVList of (timestamp, value) records; an *active* (working) memtable
// absorbs writes until it is full, then transitions to *immutable*
// (flushing) and is drained to disk while a fresh working memtable
// takes over.
package memtable

import (
	"sort"

	"repro/internal/adaptive"
	"repro/internal/tvlist"
)

// State is a memtable's lifecycle phase.
type State int

const (
	// Working memtables accept writes.
	Working State = iota
	// Flushing memtables are immutable and being written to disk.
	Flushing
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Working:
		return "working"
	case Flushing:
		return "flushing"
	default:
		return "unknown"
	}
}

// MemTable buffers writes per sensor. It is not internally
// synchronized: the engine serializes access (in IoTDB, too, the
// query takes the lock and blocks the write process — Section VI-D1).
type MemTable struct {
	state    State
	series   map[string]series
	arrayLen int
	points   int
	// track makes every new sensor start with a disorder sketch
	// (TrackDisorder).
	track bool
}

// series is everything the memtable holds for one sensor, so a Write
// resolves the sensor with one map lookup.
type series struct {
	chunk *tvlist.TVList[float64]
	// sketch is the sensor's adaptive disorder sketch, updated on every
	// Write; nil unless disorder tracking is on. A fresh memtable
	// starts with fresh (zero) sketches: sketch state never survives
	// the flush rotation — cross-generation memory lives in the
	// planner, not here.
	sketch *adaptive.Sketch
}

// New creates an empty working memtable. A positive arrayLen stores
// each sensor's chunk as IoTDB's List<Array> with arrays of that many
// records; 0 stores it as one contiguous array pair
// (tvlist.NewContiguous), which the flat kernel sorts in place.
func New(arrayLen int) *MemTable {
	return &MemTable{
		series:   make(map[string]series),
		arrayLen: arrayLen,
	}
}

// Write appends one record to the sensor's chunk. Writing to a
// flushing memtable panics: the engine must never route writes to an
// immutable table, and doing so is a bug worth failing loudly on.
func (m *MemTable) Write(sensor string, t int64, v float64) {
	if m.state != Working {
		panic("memtable: write to non-working memtable")
	}
	s, ok := m.series[sensor]
	if !ok {
		if m.arrayLen > 0 {
			s.chunk = tvlist.NewWithArrayLen[float64](m.arrayLen)
		} else {
			s.chunk = tvlist.NewContiguous[float64]()
		}
		if m.track {
			s.sketch = &adaptive.Sketch{}
		}
		m.series[sensor] = s
	}
	s.chunk.Put(t, v)
	m.points++
	if s.sketch != nil {
		s.sketch.Observe(t)
	}
}

// TrackDisorder enables per-sensor adaptive disorder sketches: every
// subsequent Write also feeds the sensor's sketch (O(1) per point).
// Call it on a fresh memtable, before any writes, under the same
// serialization that guards Write.
func (m *MemTable) TrackDisorder() { m.track = true }

// Sketch returns a snapshot of the sensor's disorder sketch. ok is
// false when disorder tracking is off or the sensor has no data. Like
// every MemTable accessor it must be called under the engine's
// serialization (or after the memtable turned immutable).
func (m *MemTable) Sketch(sensor string) (adaptive.Snapshot, bool) {
	sk := m.series[sensor].sketch
	if sk == nil {
		return adaptive.Snapshot{}, false
	}
	return sk.Snapshot(), true
}

// Chunk returns the sensor's TVList, or nil if the sensor has no data.
func (m *MemTable) Chunk(sensor string) *tvlist.TVList[float64] {
	return m.series[sensor].chunk
}

// SnapshotChunk returns a deep copy of the sensor's TVList, or nil if
// the sensor has no data. Queries use it to snapshot a *working*
// (still-mutable) chunk under the engine lock and then sort and scan
// the copy outside it — the copy is O(points) memcpy, far cheaper than
// holding the lock across an O(n log n) sort. The copy preserves the
// sorted flag, so an in-order chunk's snapshot skips its sort
// entirely.
func (m *MemTable) SnapshotChunk(sensor string) *tvlist.TVList[float64] {
	c := m.series[sensor].chunk
	if c == nil {
		return nil
	}
	return c.Clone()
}

// Sensors returns the sensors present, sorted for deterministic
// iteration.
func (m *MemTable) Sensors() []string {
	out := make([]string, 0, len(m.series))
	for s := range m.series {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Points returns the total number of buffered records.
func (m *MemTable) Points() int { return m.points }

// State returns the lifecycle state.
func (m *MemTable) State() State { return m.state }

// MarkFlushing transitions the memtable to the immutable flushing
// state. The transition is one-way.
func (m *MemTable) MarkFlushing() { m.state = Flushing }

// Empty reports whether the memtable holds no records.
func (m *MemTable) Empty() bool { return m.points == 0 }
