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
// carries, without decoding, when the merge finds it stand-alone (see
// merge.go) and its range lies inside one window. Every served file is
// strict (Open upgrades the rest), so every chunk and block has
// statistics. Block granularity is what makes the pushdown useful on
// windows much smaller than a chunk: a 100k-point chunk whose blocks
// each span one window still answers every fully-covered block from
// metadata and decodes only the two boundary blocks.
package engine

import (
	"fmt"

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

// sources returns the merge inputs for sensor over [minT, maxT]: the
// memtable runs, then a source per file with chunks in range, all
// newest-first.
func (qs *querySources) sources(sensor string, minT, maxT int64) []*source {
	srcs := append(make([]*source, 0, len(qs.mem)+len(qs.files)), qs.mem...)
	for _, fh := range qs.files {
		if chunks := overlapping(fh, sensor, minT, maxT); len(chunks) > 0 {
			srcs = append(srcs, newFileSource(fh, chunks, minT, maxT))
		}
	}
	return srcs
}

// AggregateWindows evaluates op over window-sized buckets of the
// half-open range [startT, endT): windows start at
// startT + k·window, empty windows are omitted, and results arrive in
// start order. When the same timestamp appears in multiple generations
// the newest write wins, exactly as in Query.
//
// The sources stream through the same merge Query uses, so memory
// stays O(windows) + one block per file; a chunk or block the merge
// finds stand-alone inside one window is folded from its statistics
// without decoding.
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

	srcs := qs.sources(sensor, startT, maxT)
	// The merge keeps a whole chunk or block inside [startT, maxT]
	// itself; folded from statistics, it must also fall in one window.
	m := newMerge(srcs, func(lo, hi int64) bool {
		return winagg.WindowStart(startT, lo, window) == winagg.WindowStart(startT, hi, window)
	})
	// Runs and whole chunks or blocks arrive in time order, so windows
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
	for {
		ts, vs, whole, err := m.next()
		if err != nil {
			return nil, err
		}
		if whole.Count > 0 {
			st := whole.Stats
			get(whole.MinTime).AddStats(whole.Count, st.Min, st.Max, st.Sum, st.First, st.Last)
			continue
		}
		if len(ts) == 0 {
			break
		}
		for i, t := range ts {
			get(t).AddPoint(vs[i])
		}
	}
	e.noteReads(srcs)
	for i := range out {
		out[i].Count, out[i].Value = accs[i].Count(), accs[i].Result()
	}
	return out, nil
}
