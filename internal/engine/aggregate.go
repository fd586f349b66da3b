// Streaming query execution and aggregation pushdown.
//
// Query and AggregateWindows share one source model: every generation
// that can hold data for a sensor — working memtables, flushing units,
// flushed files — becomes a source of sorted column runs, ranked
// newest-first, and the run merge (merge.go) combines them with
// newest-wins dedup: on equal timestamps the lowest rank wins. A
// memtable or flushing-unit chunk is two sorted runs with one record
// per timestamp, its image's base and tail (tvlist.View.Resolve); a
// file source decodes one block at a time, so a long range scan holds
// one block's points in memory per file rather than materializing
// everything before sorting.
//
// AggregateWindows additionally prunes: a chunk — or an individual
// block of it — is answered from the value statistics its index entry
// carries, without decoding, when the stats provably equal its
// contribution to the deduplicated stream. Every served file is strict
// (Open upgrades the rest), so every chunk and block has statistics.
// The condition (checked per candidate span in buildAggPlan) is:
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
//     disqualifies.
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

// querySources is one query's snapshot of the engine: sorted-run
// sources of the memtables and flushing units (newest-first) and
// pinned file handles (newest-first). release must be called when the
// query finishes.
type querySources struct {
	mem   []*source
	files []*fileHandle
}

func (qs *querySources) release() {
	for _, fh := range qs.files {
		fh.release()
	}
}

// gatherSources snapshots every source that may hold records of sensor
// in [minT, maxT], ordered newest generation first (within a
// generation, unsequence before sequence). Under the engine lock a
// query only captures each memtable chunk — its published sorted image
// and the count of writes after it, O(1) — and pins files; it sorts
// those later writes and answers after releasing the lock, so writers
// never wait on a sort. Config.PaperProfile restores the paper's
// behavior of sorting the live working TVLists in place under the
// lock.
func (e *Engine) gatherSources(sensor string, minT, maxT int64) (*querySources, error) {
	qs := &querySources{}
	addRun := func(r tvlist.Run[float64]) {
		if r = r.Range(minT, maxT); r.Len() > 0 {
			qs.mem = append(qs.mem, &source{times: r.Times, values: r.Values})
		}
	}
	// sortScan sorts one paper-profile chunk in place and copies its
	// records in range out as one run.
	sortScan := func(c *tvlist.TVList[float64]) {
		e.sortChunk(c)
		ts, vs := c.LastPerTime(minT, maxT)
		addRun(tvlist.Run[float64]{Times: ts, Values: vs})
	}

	e.lockContended(true)
	if e.closed {
		e.mu.Unlock()
		return nil, errClosed
	}
	// Unsequence before sequence — the first memtable of each
	// generation is its unsequence one — and flushing units
	// newest-first, so an in-flight rewrite outranks the older
	// in-flight generation it rewrites.
	units := append([]*flushUnit(nil), e.flushing...)
	gens := [][2]*memtable.MemTable{{e.workingUn, e.working}}
	for i := len(units) - 1; i >= 0; i-- {
		gens = append(gens, [2]*memtable.MemTable{units[i].unseq, units[i].seq})
	}
	var views []tvlist.View[float64]
	for g, mts := range gens {
		for _, mt := range mts {
			chunk := mt.Chunk(sensor)
			switch {
			case chunk == nil:
			case !e.cfg.PaperProfile:
				views = append(views, chunk.Capture())
			case g == 0:
				sortScan(chunk)
			}
		}
	}
	for i := len(e.files) - 1; i >= 0; i-- {
		fh := e.files[i]
		if fh.maxTime < minT || fh.minTime > maxT {
			continue
		}
		fh.acquire()
		qs.files = append(qs.files, fh)
	}
	e.mu.Unlock()

	// Each captured chunk answers as two runs, its tail outranking its
	// base.
	for _, v := range views {
		img, _ := e.resolve(v, false)
		addRun(img.Tail)
		addRun(img.Base)
	}
	if e.cfg.PaperProfile {
		for i := len(units) - 1; i >= 0; i-- {
			unit := units[i]
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
	}
	return qs, nil
}

// overlapping returns fh's chunks for sensor that intersect
// [minT, maxT], in index (time) order. It visits only the sensor's
// chunks, and stops at the first one past maxT.
func overlapping(fh *fileHandle, sensor string, minT, maxT int64) []tsfile.ChunkMeta {
	var out []tsfile.ChunkMeta
	for _, p := range fh.chunks[sensor] {
		m := &fh.index[p]
		if m.MinTime > maxT {
			break
		}
		if m.MaxTime >= minT {
			out = append(out, *m)
		}
	}
	return out
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
// deduplicated stream (see buildAggPlan) are answered from the index
// without decoding; everything else streams through the same merge
// Query uses, so memory stays O(windows) + one block per file.
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
	// Points and stats contributions arrive in time order, so windows
	// open in start order and only the last one is ever added to.
	var out []winagg.Window
	var accs []winagg.Acc
	get := func(t int64) *winagg.Acc {
		if ws := winagg.WindowStart(startT, t, window); len(out) == 0 || out[len(out)-1].Start != ws {
			out = append(out, winagg.Window{Start: ws})
			accs = append(accs, winagg.Acc{Op: op})
		}
		return &accs[len(accs)-1]
	}
	fold := func(c statsContrib) {
		get(c.minTime).AddStats(c.count, c.stats.Min, c.stats.Max, c.stats.Sum, c.stats.First, c.stats.Last)
	}
	ci := 0
	for {
		ts, vs, err := m.next()
		if err != nil {
			return nil, err
		}
		if len(ts) == 0 {
			break
		}
		for i, t := range ts {
			// A stats chunk whose range precedes this point is
			// complete: eligibility guarantees no point falls inside
			// its range, so minTime <= t implies the whole chunk is
			// earlier.
			for ci < len(contribs) && contribs[ci].minTime <= t {
				fold(contribs[ci])
				ci++
			}
			get(t).AddPoint(vs[i])
		}
	}
	e.noteReads(srcs)
	for ; ci < len(contribs); ci++ {
		fold(contribs[ci])
	}
	for i := range out {
		out[i].Count, out[i].Value = accs[i].Count(), accs[i].Result()
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
func (e *Engine) buildAggPlan(qs *querySources, sensor string, startT, maxT, window int64) ([]statsContrib, []*source) {
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
		for _, s := range qs.mem {
			if anyPointIn(s.times, lo, hi) {
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
	srcs := append(make([]*source, 0, len(qs.mem)+len(qs.files)), qs.mem...)
	chunkID = 0
	for i, fh := range qs.files {
		var decode []tsfile.ChunkMeta
		for _, m := range perFile[i] {
			id := chunkID
			chunkID++
			ownSpan := func(si int) bool {
				return spans[si].chunkID == id
			}
			if inOneWindow(m.MinTime, m.MaxTime) && shadowFree(m.MinTime, m.MaxTime, ownSpan) {
				contribs = append(contribs, statsContrib{m.MinTime, m.Count, m.Stats})
				e.chunksFromStats.Add(1)
				e.pointsSkipped.Add(int64(m.Count))
				continue
			}
			// Block granularity: answer what the per-block statistics
			// can and leave the rest to the source, which decodes the
			// blocks in range and seeks past the others.
			si := chunkSpanStart[id]
			var rest []tsfile.BlockMeta
			for _, b := range m.Blocks {
				if b.MaxTime >= startT && b.MinTime <= maxT {
					self := si
					si++
					if inOneWindow(b.MinTime, b.MaxTime) &&
						shadowFree(b.MinTime, b.MaxTime, func(i int) bool { return i == self }) {
						contribs = append(contribs, statsContrib{b.MinTime, b.Count, b.Stats})
						e.blocksFromStats.Add(1)
						e.pointsSkipped.Add(int64(b.Count))
						continue
					}
				}
				rest = append(rest, b)
			}
			m.Blocks = rest
			decode = append(decode, m)
		}
		if len(decode) > 0 {
			srcs = append(srcs, newFileSource(fh, decode, startT, maxT))
		}
	}
	return contribs, srcs
}
