// The run merge every read and every compaction goes through.
//
// A source is one generation's records of one sensor as sorted column
// runs: a memtable or flushing-unit snapshot is a single run, a file
// yields one run per decoded block. The merge hands out, per call, the
// longest prefix of the winning source's run that lies strictly below
// every other source's head, so a run no other source overlaps leaves
// the merge whole and the heap is entered only where runs interleave —
// Phase 3 of Backward-Sort moved to read time, touching only the
// overlap that Prop. 4 bounds by the delay tail.
package engine

import (
	"fmt"
	"slices"

	"repro/internal/tsfile"
)

// readTally counts one source's file work: chunks and blocks decoded,
// blocks its range seek skipped, bytes fetched. Query and
// AggregateWindows add it to the engine's read counters once per call;
// compaction leaves its reads uncounted.
type readTally struct{ chunks, blocks, skipped, bytes int64 }

// blockRef is one block a file source still has to decode.
type blockRef struct {
	chunk *tsfile.ChunkMeta
	block tsfile.BlockMeta
}

// blockCols is scratch one file source decodes blocks into: the raw
// block bytes and the decoded columns, kept for the next block.
type blockCols struct {
	buf    []byte
	times  []int64
	values []float64
}

// source is one merge input: sorted column runs whose times strictly
// increase across runs. times/values hold the current run's records
// not yet handed out. A file source refills them block by block from
// pending, decoding into one of its two scratch sets; a snapshot
// source has nothing pending. A file source reads strict files only
// (tsfile.Reader.Strict, which Open establishes for every file it
// serves): their blocks' times strictly increase inside and across
// blocks and chunks, which the reader checks as it decodes.
type source struct {
	times  []int64
	values []float64
	rank   int // position in the newest-first order; lower wins ties

	fh         *fileHandle
	pending    []blockRef
	minT, maxT int64 // a file source's range
	reads      readTally
	scratch    [2]blockCols
	cur        int // the scratch set times/values live in
}

// newFileSource streams fh's blocks of chunks (in index order) that
// meet [minT, maxT]; the rest are skipped without I/O.
func newFileSource(fh *fileHandle, chunks []tsfile.ChunkMeta, minT, maxT int64) *source {
	s := &source{fh: fh, minT: minT, maxT: maxT}
	for i := range chunks {
		m := &chunks[i]
		n := len(s.pending)
		for _, b := range m.Blocks {
			if b.MaxTime < minT || b.MinTime > maxT {
				s.reads.skipped++
				continue
			}
			s.pending = append(s.pending, blockRef{m, b})
		}
		if len(s.pending) > n {
			s.reads.chunks++
		}
	}
	return s
}

// fill makes the current run non-empty, decoding pending blocks as
// needed, and reports false once the source is exhausted. A decoded
// block keeps its records in [minT, maxT].
//
// The run the merge last handed out may alias the scratch set the
// current run lives in, and must stay valid until the merge's next
// call, so fill decodes into the other set — switching once per call,
// not once per block: blocks the range empties are decoded over each
// other in the same set.
func (s *source) fill() (bool, error) {
	if len(s.times) > 0 || len(s.pending) == 0 {
		return len(s.times) > 0, nil
	}
	s.cur ^= 1
	sc := &s.scratch[s.cur]
	for len(s.times) == 0 {
		if len(s.pending) == 0 {
			return false, nil
		}
		p := s.pending[0]
		s.pending = s.pending[1:]
		var err error
		sc.buf, sc.times, sc.values, err = s.fh.reader.ReadBlockInto(*p.chunk, p.block, s.maxT, sc.buf, sc.times, sc.values)
		if err != nil {
			return false, fmt.Errorf("engine: read %s: %w", s.fh.path, err)
		}
		s.reads.blocks++
		s.reads.bytes += p.block.Size
		i, _ := slices.BinarySearch(sc.times, s.minT)
		s.times, s.values = sc.times[i:], sc.values[i:]
	}
	return true, nil
}

// merge combines sources with newest-wins dedup. Sources are passed
// newest-first; on equal timestamps the lowest rank wins. The heap
// orders sources by (head time, rank).
type merge struct {
	heap    []*source
	emitted bool
	lastT   int64 // last time handed out
}

func newMerge(sources []*source) (*merge, error) {
	m := &merge{}
	for rank, s := range sources {
		s.rank = rank
		ok, err := s.fill()
		if err != nil {
			return nil, err
		}
		if ok {
			m.heap = append(m.heap, s)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

func (m *merge) less(a, b int) bool {
	sa, sb := m.heap[a], m.heap[b]
	if sa.times[0] != sb.times[0] {
		return sa.times[0] < sb.times[0]
	}
	return sa.rank < sb.rank
}

func (m *merge) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(m.heap) && m.less(l, min) {
			min = l
		}
		if r < len(m.heap) && m.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		m.heap[i], m.heap[min] = m.heap[min], m.heap[i]
		i = min
	}
}

// next returns the next run of deduplicated records in time order, or
// empty columns when every source is exhausted. The run is the longest
// prefix of the root's run below both children's heads — and so below
// every other source's — and at least one record: on a tie the root
// wins by rank, and each loser drops its record when it surfaces. The
// columns alias the source and are valid until the next call.
func (m *merge) next() ([]int64, []float64, error) {
	for len(m.heap) > 0 {
		s := m.heap[0]
		// A stale head: a newer source already supplied this timestamp.
		stale := m.emitted && s.times[0] == m.lastT
		n := len(s.times)
		if stale {
			n = 1
		} else if len(m.heap) > 1 {
			bound := m.heap[1].times[0]
			if len(m.heap) > 2 {
				bound = min(bound, m.heap[2].times[0])
			}
			below, _ := slices.BinarySearch(s.times, bound)
			n = max(1, below)
		}
		ts, vs := s.times[:n], s.values[:n]
		s.times, s.values = s.times[n:], s.values[n:]
		ok, err := s.fill()
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		m.siftDown(0)
		if !stale {
			m.emitted, m.lastT = true, ts[n-1]
			return ts, vs, nil
		}
	}
	return nil, nil, nil
}

// noteReads adds the sources' read tallies to the engine's
// read-amplification counters.
func (e *Engine) noteReads(srcs []*source) {
	var t readTally
	for _, s := range srcs {
		t.chunks += s.reads.chunks
		t.blocks += s.reads.blocks
		t.skipped += s.reads.skipped
		t.bytes += s.reads.bytes
	}
	e.chunksDecoded.Add(t.chunks)
	e.blocksDecoded.Add(t.blocks)
	e.blocksSkipped.Add(t.skipped)
	e.bytesRead.Add(t.bytes)
}

// anyPointIn reports whether the ascending times hold one in [lo, hi].
func anyPointIn(times []int64, lo, hi int64) bool {
	i, _ := slices.BinarySearch(times, lo)
	return i < len(times) && times[i] <= hi
}
