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
//
// A file source decodes lazily: until the merge needs its records, its
// head is the MinTime of its next pending block, a lower bound read
// from the index. A pending block at the root whose whole range lies
// strictly above the last time handed out and strictly below every
// other head is stand-alone: no other source holds a record in its
// range, and none was handed out there, so it holds exactly the
// deduplicated stream's records in that range. When the caller accepts
// its range, the merge hands it out undecoded — the whole chunk when it
// opens one that is stand-alone too — to be answered from its count
// and statistics.
package engine

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/tsfile"
)

// readTally counts one source's file work: chunks and blocks decoded,
// blocks its range seek skipped, bytes fetched, and the chunks, blocks
// and points handed out whole. Query and AggregateWindows add it to
// the engine's read counters once per call; compaction leaves its
// reads uncounted.
type readTally struct {
	chunks, blocks, skipped, bytes        int64
	wholeChunks, wholeBlocks, wholePoints int64
}

// blockRef is one block a file source still has to decode.
type blockRef struct {
	chunk *tsfile.ChunkMeta
	block tsfile.BlockMeta
}

// source is one merge input: sorted column runs whose times strictly
// increase across runs. times/values hold the current run's records
// not yet handed out. A file source refills them block by block from
// pending, decoding into its one scratch set; a snapshot source has
// nothing pending. A file source reads strict files only
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
	decoded    *tsfile.ChunkMeta // the chunk last decoded from
	buf        []byte            // scratch the blocks are read and decoded into
	bufT       []int64
	bufV       []float64
}

// newFileSource streams fh's blocks of chunks (in index order) that
// meet [minT, maxT]; the rest are skipped without I/O.
func newFileSource(fh *fileHandle, chunks []tsfile.ChunkMeta, minT, maxT int64) *source {
	s := &source{fh: fh, minT: minT, maxT: maxT}
	for i := range chunks {
		m := &chunks[i]
		for _, b := range m.Blocks {
			if b.MaxTime < minT || b.MinTime > maxT {
				s.reads.skipped++
				continue
			}
			s.pending = append(s.pending, blockRef{m, b})
		}
	}
	return s
}

// head is the source's first record time, or, before its next pending
// block is decoded, that block's MinTime: a lower bound.
func (s *source) head() int64 {
	if len(s.times) > 0 {
		return s.times[0]
	}
	return s.pending[0].block.MinTime
}

// decode replaces the current run with the next pending block's
// records in [minT, maxT], which may be none.
func (s *source) decode() error {
	p := s.pending[0]
	s.pending = s.pending[1:]
	var err error
	s.buf, s.bufT, s.bufV, err = s.fh.reader.ReadBlockInto(*p.chunk, p.block, s.maxT, s.buf, s.bufT, s.bufV)
	if err != nil {
		return fmt.Errorf("engine: read %s: %w", s.fh.path, err)
	}
	if p.chunk != s.decoded {
		s.decoded = p.chunk
		s.reads.chunks++
	}
	s.reads.blocks++
	s.reads.bytes += p.block.Size
	i, _ := slices.BinarySearch(s.bufT, s.minT)
	s.times, s.values = s.bufT[i:], s.bufV[i:]
	return nil
}

// merge combines sources with newest-wins dedup. Sources are passed
// newest-first; on equal timestamps the lowest rank wins. The heap
// orders sources by (head, rank). accept, when non-nil, is the
// caller's say on which stand-alone ranges it takes undecoded.
type merge struct {
	heap    []*source
	accept  func(minT, maxT int64) bool
	emitted bool
	lastT   int64 // last time handed out
}

// newMerge builds the merge without decoding anything. With a nil
// accept, next hands out decoded runs only.
func newMerge(sources []*source, accept func(minT, maxT int64) bool) *merge {
	m := &merge{accept: accept}
	for rank, s := range sources {
		s.rank = rank
		if len(s.times) > 0 || len(s.pending) > 0 {
			m.heap = append(m.heap, s)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m
}

func (m *merge) less(a, b int) bool {
	sa, sb := m.heap[a], m.heap[b]
	if ha, hb := sa.head(), sb.head(); ha != hb {
		return ha < hb
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

// fixRoot restores the heap after the root's head moved on, dropping
// the root once it is exhausted.
func (m *merge) fixRoot() {
	if s := m.heap[0]; len(s.times) == 0 && len(s.pending) == 0 {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	m.siftDown(0)
}

// standAlone reports whether [lo, hi] of the root source s lies inside
// its range, strictly above the last time handed out and strictly
// below bound, and is accepted by the caller.
// Strict inequalities keep a boundary timestamp another source holds,
// or one already handed out, out of the range.
func (m *merge) standAlone(s *source, lo, hi, bound int64) bool {
	return lo >= s.minT && hi <= s.maxT && (!m.emitted || lo > m.lastT) && hi < bound && m.accept(lo, hi)
}

// takeWhole hands out the root s's next pending block undecoded — or
// the whole chunk it opens, when that qualifies too — if it is
// stand-alone below bound, the least other head.
func (m *merge) takeWhole(s *source, bound int64) (tsfile.BlockMeta, bool) {
	p := s.pending[0]
	c := p.chunk
	whole, n := p.block, 1
	switch {
	case p.block.Offset == c.Blocks[0].Offset && m.standAlone(s, c.MinTime, c.MaxTime, bound):
		whole = tsfile.BlockMeta{Offset: c.Offset, Size: c.Size, Count: c.Count, MinTime: c.MinTime, MaxTime: c.MaxTime, Stats: c.Stats}
		n = len(c.Blocks)
		s.reads.wholeChunks++
	case m.standAlone(s, p.block.MinTime, p.block.MaxTime, bound):
		s.reads.wholeBlocks++
	default:
		return tsfile.BlockMeta{}, false
	}
	s.reads.wholePoints += int64(whole.Count)
	s.pending = s.pending[n:]
	m.emitted, m.lastT = true, whole.MaxTime
	m.fixRoot()
	return whole, true
}

// next returns the next piece of the deduplicated records in time
// order: a run of records, or — with whole.Count > 0 and no records —
// a stand-alone chunk or block the caller accepted, undecoded. It
// returns neither once every source is exhausted. A run is the longest
// prefix of the root's run below both children's heads — and so below
// every other source's — and at least one record: on a tie the root
// wins by rank, and each loser drops its record when it surfaces. The
// columns alias the source and are valid until the next call; a source
// decodes only here, before anything is handed out, so one scratch set
// per source suffices.
func (m *merge) next() ([]int64, []float64, tsfile.BlockMeta, error) {
	for len(m.heap) > 0 {
		s := m.heap[0]
		bound := int64(math.MaxInt64)
		if len(m.heap) > 1 {
			bound = m.heap[1].head()
			if len(m.heap) > 2 {
				bound = min(bound, m.heap[2].head())
			}
		}
		if len(s.times) == 0 {
			if m.accept != nil {
				if whole, ok := m.takeWhole(s, bound); ok {
					return nil, nil, whole, nil
				}
			}
			if err := s.decode(); err != nil {
				return nil, nil, tsfile.BlockMeta{}, err
			}
			m.fixRoot()
			continue
		}
		// A stale head: a newer source already supplied this timestamp.
		stale := m.emitted && s.times[0] == m.lastT
		n := len(s.times)
		if stale {
			n = 1
		} else if len(m.heap) > 1 {
			below, _ := slices.BinarySearch(s.times, bound)
			n = max(1, below)
		}
		ts, vs := s.times[:n], s.values[:n]
		s.times, s.values = s.times[n:], s.values[n:]
		m.fixRoot()
		if !stale {
			m.emitted, m.lastT = true, ts[n-1]
			return ts, vs, tsfile.BlockMeta{}, nil
		}
	}
	return nil, nil, tsfile.BlockMeta{}, nil
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
		t.wholeChunks += s.reads.wholeChunks
		t.wholeBlocks += s.reads.wholeBlocks
		t.wholePoints += s.reads.wholePoints
	}
	e.chunksDecoded.Add(t.chunks)
	e.blocksDecoded.Add(t.blocks)
	e.blocksSkipped.Add(t.skipped)
	e.bytesRead.Add(t.bytes)
	e.chunksFromStats.Add(t.wholeChunks)
	e.blocksFromStats.Add(t.wholeBlocks)
	e.pointsSkipped.Add(t.wholePoints)
}

// pointsBound bounds the records the sources can yield: every record
// of their current runs, and of each pending block at most its count
// and at most one per tick of its overlap with the source's range —
// times strictly increase — so a block straddling a narrow range
// counts for the range, not the block. A reply sized by it is
// allocated once instead of grown by copying.
func pointsBound(srcs []*source) int {
	n := 0
	for _, s := range srcs {
		n += len(s.times)
		for _, p := range s.pending {
			lo, hi := max(p.block.MinTime, s.minT), min(p.block.MaxTime, s.maxT)
			if ticks := uint64(hi) - uint64(lo); ticks < uint64(p.block.Count) {
				n += int(ticks) + 1
			} else {
				n += p.block.Count
			}
		}
	}
	return n
}
