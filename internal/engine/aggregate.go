// Streaming query execution and aggregation pushdown.
//
// Query and AggregateWindows share one source model: every generation
// that can hold data for a sensor — working memtables, flushing units,
// flushed files — becomes a pointSource yielding records in
// nondecreasing time order, and a k-way heap merge combines them with
// rank-based newest-wins dedup (sources are ordered newest-first; on
// equal timestamps the lowest rank wins). Inside one source each
// timestamp appears once: tvlist yields one record per timestamp, and
// the tsfile writer refuses equal timestamps. File sources decode one
// chunk at a time, so a long range scan holds one chunk's points in
// memory per file rather than materializing everything before sorting.
//
// AggregateWindows additionally prunes: a chunk — or an individual
// block of it — whose index entry carries value statistics is
// answered from those statistics, without decoding, when
// the stats provably equal its contribution to the deduplicated
// stream. The condition (checked per candidate span in
// buildAggPlan/spanEligible) is:
//
//  1. the span's time range lies entirely inside the query range and
//     inside a single window bucket, so every one of its points lands
//     in that window;
//  2. no other source — memtable point, flushing point, or any other
//     span of the sensor (another chunk, another chunk's block, or a
//     sibling block sharing a boundary timestamp) — has a timestamp
//     inside the span's [MinTime, MaxTime]. Overlap from a *newer*
//     source could shadow the span's points; overlap from an *older*
//     source could itself be shadowed; either way the per-point
//     outcome differs from the raw statistics, so any overlap
//     disqualifies;
//  3. the span has statistics at all. The writer records them for
//     every chunk and block; only a file written before timestamps had
//     to strictly increase holds chunks/blocks with internal duplicate
//     timestamps, stored without statistics because dedup would drop
//     points the statistics counted. Compact rewrites such files.
//
// Block granularity is what makes the pushdown useful on windows much
// smaller than a chunk: a 100k-point chunk whose blocks each span one
// window still answers every fully-covered block from metadata and
// decodes only the two boundary blocks.
package engine

import (
	"fmt"
	"sort"

	"repro/internal/memtable"
	"repro/internal/tsfile"
	"repro/internal/tvlist"
	"repro/internal/winagg"
)

// pointSource yields (time, value) records in nondecreasing time
// order. next returns ok=false when exhausted.
type pointSource interface {
	next() (TV, bool, error)
}

// sliceSource streams a materialized, sorted []TV (memtable and
// flushing-unit scans).
type sliceSource struct {
	buf []TV
	pos int
}

func (s *sliceSource) next() (TV, bool, error) {
	if s.pos >= len(s.buf) {
		return TV{}, false, nil
	}
	tv := s.buf[s.pos]
	s.pos++
	return tv, true, nil
}

// fileSource streams one file's chunks for a sensor, decoding lazily
// block by block and seeking past blocks whose time bounds miss
// [minT, maxT] without any I/O. It relies on the tsfile invariant
// (enforced at write and load time) that a sensor's chunks, and a
// chunk's blocks, appear in nondecreasing time order.
//
// blockSets, when non-nil, runs parallel to chunks and pre-selects the
// exact blocks to decode per chunk (the aggregation planner uses it to
// decode only the blocks its statistics could not answer).
type fileSource struct {
	e          *Engine
	fh         *fileHandle
	chunks     []tsfile.ChunkMeta
	blockSets  [][]tsfile.BlockMeta
	minT, maxT int64
	buf        []TV
	pos        int
	cur        tsfile.ChunkMeta   // chunk being streamed
	pending    []tsfile.BlockMeta // its blocks still to decode
}

func (s *fileSource) next() (TV, bool, error) {
	for {
		if s.pos < len(s.buf) {
			tv := s.buf[s.pos]
			s.pos++
			return tv, true, nil
		}
		if len(s.pending) != 0 {
			b := s.pending[0]
			s.pending = s.pending[1:]
			ts, vs, err := s.fh.reader.ReadBlockUpTo(s.cur, b, s.maxT)
			if err != nil {
				return TV{}, false, err
			}
			s.e.blocksDecoded.Add(1)
			s.e.bytesRead.Add(b.Size)
			s.buf = s.buf[:0]
			s.pos = 0
			for i, t := range ts {
				if t >= s.minT {
					s.buf = append(s.buf, TV{t, vs[i]})
				}
			}
			continue
		}
		if len(s.chunks) == 0 {
			return TV{}, false, nil
		}
		s.cur = s.chunks[0]
		s.chunks = s.chunks[1:]
		if s.blockSets != nil {
			s.pending = s.blockSets[0]
			s.blockSets = s.blockSets[1:]
		} else {
			for _, b := range s.cur.Blocks {
				if b.MaxTime < s.minT || b.MinTime > s.maxT {
					s.e.blocksSkipped.Add(1)
					continue
				}
				s.pending = append(s.pending, b)
			}
		}
		if len(s.pending) != 0 {
			s.e.chunksDecoded.Add(1)
		}
	}
}

// mergeHead is one heap slot: the head record of a source plus the
// source's rank (its position in the newest-first ordering).
type mergeHead struct {
	tv   TV
	rank int
	src  pointSource
}

// merge is a k-way heap merge with newest-wins dedup. Sources must be
// passed newest-first; each yields nondecreasing timestamps. Ties
// across sources go to the lowest rank. A tie inside one source
// occurs only in a file written before timestamps had to strictly
// increase; the merge keeps that run's first record, as it always
// has, until Compact rewrites the file.
type merge struct {
	heads   []mergeHead
	emitted bool
	lastT   int64
}

func newMerge(sources []pointSource) (*merge, error) {
	m := &merge{}
	for rank, src := range sources {
		tv, ok, err := src.next()
		if err != nil {
			return nil, err
		}
		if ok {
			m.heads = append(m.heads, mergeHead{tv, rank, src})
		}
	}
	for i := len(m.heads)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m, nil
}

// less orders heads by (time, rank): earliest first, and on equal
// timestamps the newest source first — the record dedup keeps.
func (m *merge) less(a, b int) bool {
	if m.heads[a].tv.T != m.heads[b].tv.T {
		return m.heads[a].tv.T < m.heads[b].tv.T
	}
	return m.heads[a].rank < m.heads[b].rank
}

func (m *merge) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(m.heads) && m.less(l, min) {
			min = l
		}
		if r < len(m.heads) && m.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		m.heads[i], m.heads[min] = m.heads[min], m.heads[i]
		i = min
	}
}

// next returns the next deduplicated record in time order.
func (m *merge) next() (TV, bool, error) {
	for len(m.heads) > 0 {
		head := m.heads[0]
		tv, ok, err := head.src.next()
		if err != nil {
			return TV{}, false, err
		}
		if ok {
			m.heads[0].tv = tv
		} else {
			last := len(m.heads) - 1
			m.heads[0] = m.heads[last]
			m.heads = m.heads[:last]
		}
		m.siftDown(0)
		if m.emitted && head.tv.T == m.lastT {
			continue // a newer source already supplied this timestamp
		}
		m.emitted = true
		m.lastT = head.tv.T
		return head.tv, true, nil
	}
	return TV{}, false, nil
}

// querySources is one query's snapshot of the engine: materialized
// memtable/flushing scans (newest-first) and pinned file handles
// (newest-first). release must be called when the query finishes.
type querySources struct {
	mem   [][]TV
	files []*fileHandle
}

func (qs *querySources) release() {
	for _, fh := range qs.files {
		fh.release()
	}
}

// gatherSources snapshots every source that may hold records of sensor
// in [minT, maxT], ordered newest generation first (within a
// generation, unsequence before sequence). The engine lock is held
// only to snapshot; sorting and scanning of snapshotted chunks happen
// after it is released. Config.PaperProfile restores the paper's
// behavior of sorting the live working TVLists under the lock.
func (e *Engine) gatherSources(sensor string, minT, maxT int64) (*querySources, error) {
	qs := &querySources{}
	// sortScan sorts one memtable chunk and collects its records in
	// range.
	sortScan := func(c *tvlist.TVList[float64]) {
		e.sortChunk(c)
		if out := scanChunk(c, minT, maxT); len(out) > 0 {
			qs.mem = append(qs.mem, out)
		}
	}

	e.lockContended(true)
	if e.closed {
		e.mu.Unlock()
		return nil, errClosed
	}
	// Unsequence before sequence — index 0 is the unsequence memtable,
	// here and in the flushing units below.
	var workChunks [2]*tvlist.TVList[float64]
	for i, mt := range []*memtable.MemTable{e.workingUn, e.working} {
		if e.cfg.PaperProfile {
			if chunk := mt.Chunk(sensor); chunk != nil {
				sortScan(chunk)
			}
		} else {
			workChunks[i] = mt.SnapshotChunk(sensor)
		}
	}
	unitRefs := append([]*flushUnit(nil), e.flushing...)
	for i := len(e.files) - 1; i >= 0; i-- {
		fh := e.files[i]
		fh.acquire()
		qs.files = append(qs.files, fh)
	}
	e.mu.Unlock()

	// Snapshotted working chunks: sorted and scanned outside the lock;
	// writers proceed in parallel.
	for _, c := range workChunks {
		if c != nil {
			sortScan(c)
		}
	}

	// Flushing units newest-first, so an in-flight rewrite outranks
	// the older in-flight generation it rewrites.
	for i := len(unitRefs) - 1; i >= 0; i-- {
		unit := unitRefs[i]
		for _, mt := range []*memtable.MemTable{unit.unseq, unit.seq} {
			chunk := mt.Chunk(sensor)
			if chunk == nil {
				continue
			}
			mu := unit.lockChunk(chunk)
			mu.Lock()
			sortScan(chunk)
			mu.Unlock()
		}
	}
	return qs, nil
}

// overlapping returns fh's chunks for sensor that intersect
// [minT, maxT], in index (time) order.
func overlapping(fh *fileHandle, sensor string, minT, maxT int64) []tsfile.ChunkMeta {
	var out []tsfile.ChunkMeta
	for _, m := range fh.index {
		if m.Sensor == sensor && m.MaxTime >= minT && m.MinTime <= maxT {
			out = append(out, m)
		}
	}
	return out
}

// anyPointIn reports whether the sorted scan holds a timestamp in
// [lo, hi].
func anyPointIn(scan []TV, lo, hi int64) bool {
	i := sort.Search(len(scan), func(i int) bool { return scan[i].T >= lo })
	return i < len(scan) && scan[i].T <= hi
}

// statsContrib is one stats-answered chunk, folded into its window at
// minTime (sound: no other contribution lies inside the chunk's
// range, so time order is preserved).
type statsContrib struct {
	minTime int64
	count   int
	stats   *tsfile.ValueStats
}

// AggregateWindows evaluates op over window-sized buckets of the
// half-open range [startT, endT): windows start at
// startT + k·window, empty windows are omitted, and results arrive in
// start order. When the same timestamp appears in multiple generations
// the newest write wins, exactly as in Query.
//
// Chunks whose statistics provably equal their contribution to the
// deduplicated stream (see statsEligible) are answered from the index
// without decoding; everything else streams through the same merge
// Query uses, so memory stays O(windows) + one chunk per file.
func (e *Engine) AggregateWindows(sensor string, startT, endT, window int64, op winagg.Op) ([]winagg.Window, error) {
	if window <= 0 {
		return nil, fmt.Errorf("engine: window must be positive, got %d", window)
	}
	if !op.Valid() {
		return nil, fmt.Errorf("engine: unknown aggregate op %d", int(op))
	}
	if err := e.FlushError(); err != nil {
		return nil, err
	}
	if endT <= startT {
		return nil, nil
	}
	maxT := endT - 1 // endT > startT, so this cannot underflow

	qs, err := e.gatherSources(sensor, startT, maxT)
	if err != nil {
		return nil, err
	}
	defer qs.release()

	contribs, srcs := e.buildAggPlan(qs, sensor, startT, maxT, window)
	sort.Slice(contribs, func(a, b int) bool { return contribs[a].minTime < contribs[b].minTime })

	m, err := newMerge(srcs)
	if err != nil {
		return nil, err
	}
	accs := make(map[int64]*winagg.Acc)
	get := func(ws int64) *winagg.Acc {
		acc := accs[ws]
		if acc == nil {
			acc = &winagg.Acc{Op: op}
			accs[ws] = acc
		}
		return acc
	}
	fold := func(c statsContrib) {
		ws := winagg.WindowStart(startT, c.minTime, window)
		get(ws).AddStats(c.count, c.stats.Min, c.stats.Max, c.stats.Sum, c.stats.First, c.stats.Last)
	}
	ci := 0
	for {
		tv, ok, err := m.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		// A stats chunk whose range precedes this point is complete:
		// eligibility guarantees no point falls inside its range, so
		// minTime <= tv.T implies the whole chunk is earlier.
		for ci < len(contribs) && contribs[ci].minTime <= tv.T {
			fold(contribs[ci])
			ci++
		}
		get(winagg.WindowStart(startT, tv.T, window)).AddPoint(tv.V)
	}
	for ; ci < len(contribs); ci++ {
		fold(contribs[ci])
	}

	starts := make([]int64, 0, len(accs))
	for ws := range accs {
		starts = append(starts, ws)
	}
	sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
	out := make([]winagg.Window, len(starts))
	for i, ws := range starts {
		acc := accs[ws]
		out[i] = winagg.Window{Start: ws, Count: acc.Count(), Value: acc.Result()}
	}
	return out, nil
}

// aggSpan is one pruning unit the aggregation planner considers: a
// single block of a chunk. chunkID ties sibling blocks to their chunk
// so a whole-chunk candidate can exclude its own blocks from the
// overlap check.
type aggSpan struct {
	chunkID    int
	minT, maxT int64
}

// buildAggPlan partitions every overlapping chunk — whole, or block by
// block — into stats-answered contributions and decode sources. The
// overlap check needs every candidate span across all files: a span
// fully inside the query range can only be shadowed by spans that also
// intersect the range.
func (e *Engine) buildAggPlan(qs *querySources, sensor string, startT, maxT, window int64) ([]statsContrib, []pointSource) {
	perFile := make([][]tsfile.ChunkMeta, len(qs.files))
	var spans []aggSpan
	chunkSpanStart := []int{} // span index where each chunkID's spans begin
	chunkID := 0
	for i, fh := range qs.files {
		perFile[i] = overlapping(fh, sensor, startT, maxT)
		for _, m := range perFile[i] {
			chunkSpanStart = append(chunkSpanStart, len(spans))
			for _, b := range m.Blocks {
				if b.MaxTime >= startT && b.MinTime <= maxT {
					spans = append(spans, aggSpan{chunkID, b.MinTime, b.MaxTime})
				}
			}
			chunkID++
		}
	}

	// shadowFree reports that no span other than the excluded ones, and
	// no memtable/flushing point, has a timestamp inside [lo, hi].
	shadowFree := func(lo, hi int64, exclude func(si int) bool) bool {
		for si, sp := range spans {
			if exclude(si) {
				continue
			}
			if sp.maxT >= lo && sp.minT <= hi {
				return false
			}
		}
		for _, scan := range qs.mem {
			if anyPointIn(scan, lo, hi) {
				return false
			}
		}
		return true
	}
	inOneWindow := func(lo, hi int64) bool {
		return lo >= startT && hi <= maxT &&
			winagg.WindowStart(startT, lo, window) == winagg.WindowStart(startT, hi, window)
	}

	var contribs []statsContrib
	srcs := make([]pointSource, 0, len(qs.mem)+len(qs.files))
	for _, s := range qs.mem {
		srcs = append(srcs, &sliceSource{buf: s})
	}
	chunkID = 0
	for i, fh := range qs.files {
		var decode []tsfile.ChunkMeta
		var decodeBlocks [][]tsfile.BlockMeta
		for _, m := range perFile[i] {
			id := chunkID
			chunkID++
			ownSpan := func(si int) bool {
				return spans[si].chunkID == id
			}
			if m.Stats != nil && inOneWindow(m.MinTime, m.MaxTime) && shadowFree(m.MinTime, m.MaxTime, ownSpan) {
				contribs = append(contribs, statsContrib{m.MinTime, m.Count, m.Stats})
				e.chunksFromStats.Add(1)
				e.pointsSkipped.Add(int64(m.Count))
				continue
			}
			// Block granularity: answer what the per-block statistics
			// can, decode the rest, seek past the out-of-range rest.
			si := chunkSpanStart[id]
			var rest []tsfile.BlockMeta
			for _, b := range m.Blocks {
				if b.MaxTime < startT || b.MinTime > maxT {
					e.blocksSkipped.Add(1)
					continue
				}
				self := si
				si++
				if b.Stats != nil && inOneWindow(b.MinTime, b.MaxTime) &&
					shadowFree(b.MinTime, b.MaxTime, func(i int) bool { return i == self }) {
					contribs = append(contribs, statsContrib{b.MinTime, b.Count, b.Stats})
					e.blocksFromStats.Add(1)
					e.pointsSkipped.Add(int64(b.Count))
					continue
				}
				rest = append(rest, b)
			}
			if len(rest) > 0 {
				decode = append(decode, m)
				decodeBlocks = append(decodeBlocks, rest)
			}
		}
		if len(decode) > 0 {
			srcs = append(srcs, &fileSource{e: e, fh: fh, chunks: decode, blockSets: decodeBlocks, minT: startT, maxT: maxT})
		}
	}
	return contribs, srcs
}
