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
	chunks   map[string]*tvlist.TVList[float64]
	arrayLen int
	points   int
}

// New creates an empty working memtable. A positive arrayLen stores
// each sensor's chunk as IoTDB's List<Array> with arrays of that many
// records; 0 stores it as one contiguous array pair
// (tvlist.NewContiguous), which the flat kernel sorts in place.
func New(arrayLen int) *MemTable {
	return &MemTable{
		chunks:   make(map[string]*tvlist.TVList[float64]),
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
	c, ok := m.chunks[sensor]
	if !ok {
		if m.arrayLen > 0 {
			c = tvlist.NewWithArrayLen[float64](m.arrayLen)
		} else {
			c = tvlist.NewContiguous[float64]()
		}
		m.chunks[sensor] = c
	}
	c.Put(t, v)
	m.points++
}

// Chunk returns the sensor's TVList, or nil if the sensor has no data.
func (m *MemTable) Chunk(sensor string) *tvlist.TVList[float64] {
	return m.chunks[sensor]
}

// SnapshotChunk returns a deep copy of the sensor's TVList, or nil if
// the sensor has no data. Queries use it to snapshot a *working*
// (still-mutable) chunk under the engine lock and then sort and scan
// the copy outside it — the copy is O(points) memcpy, far cheaper than
// holding the lock across an O(n log n) sort. The copy preserves the
// sorted flag, so an in-order chunk's snapshot skips its sort
// entirely.
func (m *MemTable) SnapshotChunk(sensor string) *tvlist.TVList[float64] {
	c := m.chunks[sensor]
	if c == nil {
		return nil
	}
	return c.Clone()
}

// Sensors returns the sensors present, sorted for deterministic
// iteration.
func (m *MemTable) Sensors() []string {
	out := make([]string, 0, len(m.chunks))
	for s := range m.chunks {
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
