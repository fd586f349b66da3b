// Compaction: streaming merges of flushed chunk files.
//
// Two paths share one merge core (mergeInto — the run merge queries
// use, one decoded block per input in memory at a time, never a
// materialized file):
//
//   - Compact folds everything: every partition's files — sequence and
//     unsequence, plus the slice of any legacy root-level file that
//     falls inside the partition — into one terminal-level file per
//     partition (the LSM-side complement of the separation policy —
//     the paper's companion study "Separation or Not", ICDE 2022:
//     out-of-order data parked in unsequence files is eventually
//     folded back so reads stop paying a merge penalty). Open uses it
//     to fold a flat-layout store into partitions.
//   - maybeCompact rides the flush path (outside the paper profile):
//     when a partition's L0 file count or a level's total size crosses
//     its bound, a bounded pass merges an oldest-first prefix of that
//     level (input capped at the level's size bound, minimum two
//     files) into the next level. Passes run without the engine lock;
//     queries that snapshotted the old files keep reading them through
//     their reference counts even after the files are unlinked.
//
// DropPartitionsBefore is the retention path time partitions buy: a
// whole expired partition disappears as one directory unlink — O(1),
// no rewriting.
package engine

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/tsfile"
)

// mergeInto streams the newest-wins merge of inputs (ordered oldest
// generation first, as in e.files), restricted to [minT, maxT], into w
// — sensor by sensor in sorted order, through the streaming writer in
// blocks of ~w.BlockPoints points, so a huge sensor never has to
// materialize at once. Blocks are also cut at the edges of clean
// input blocks (see cleanBounds).
func mergeInto(w *tsfile.Writer, inputs []*fileHandle, minT, maxT int64) error {
	var sensors []string
	for _, fh := range inputs {
		for sensor := range fh.chunks {
			sensors = append(sensors, sensor)
		}
	}
	slices.Sort(sensors)
	sensors = slices.Compact(sensors)
	cut := w.BlockPoints
	if cut <= 0 {
		cut = DefaultBlockPoints
	}
	for _, sensor := range sensors {
		// Sources newest-first, matching the rank convention of merge.
		// Every input chunk's name header is checked once here; the
		// sources then check each block's CRC as they decode it.
		srcs := make([]*source, 0, len(inputs))
		var all []tsfile.ChunkMeta
		for i := len(inputs) - 1; i >= 0; i-- {
			chunks := overlapping(inputs[i], sensor, minT, maxT)
			for _, m := range chunks {
				if err := inputs[i].reader.VerifyChunk(m); err != nil {
					return fmt.Errorf("engine: compact read %s: %w", inputs[i].path, err)
				}
			}
			srcs = append(srcs, newFileSource(inputs[i], chunks, minT, maxT))
			all = append(all, chunks...)
		}
		if len(all) == 0 {
			continue // the sensor has no chunk in [minT, maxT]
		}
		bounds := cleanBounds(all, minT, maxT, cut/4)
		m := newMerge(srcs, nil)
		ts := make([]int64, 0, cut)
		vs := make([]float64, 0, cut)
		begun := false
		emit := func() error {
			if len(ts) == 0 {
				return nil
			}
			if !begun {
				if err := w.BeginChunk(sensor); err != nil {
					return err
				}
				begun = true
			}
			if err := w.AppendBlock(ts, vs); err != nil {
				return err
			}
			ts, vs = ts[:0], vs[:0]
			return nil
		}
		for {
			rts, rvs, _, err := m.next()
			if err != nil {
				return err
			}
			if len(rts) == 0 {
				break
			}
			// A run holds records of one input block, and no other input
			// block overlaps a clean one, so no run crosses a clean edge:
			// checking each run's first record suffices.
			if len(bounds) > 0 && bounds[0] <= rts[0] {
				if err := emit(); err != nil {
					return err
				}
				for len(bounds) > 0 && bounds[0] <= rts[0] {
					bounds = bounds[1:]
				}
			}
			for len(rts) > 0 {
				n := min(len(rts), cut-len(ts))
				ts = append(ts, rts[:n]...)
				vs = append(vs, rvs[:n]...)
				rts, rvs = rts[n:], rvs[n:]
				if len(ts) >= cut {
					if err := emit(); err != nil {
						return err
					}
				}
			}
		}
		if err := emit(); err != nil {
			return err
		}
		if begun {
			if err := w.EndChunk(); err != nil {
				return err
			}
		}
	}
	return nil
}

// cleanBounds returns, ascending, the edges (first tick, one past the
// last) of every clean block in chunks: one of at least minPoints
// points inside [minT, maxT] overlapping no other block. Cut there, a
// clean block leaves the merge whole, never sharing a block with late
// rewrites whose newer, wider range would shadow its statistics.
func cleanBounds(chunks []tsfile.ChunkMeta, minT, maxT int64, minPoints int) []int64 {
	var blocks []tsfile.BlockMeta
	for _, m := range chunks {
		blocks = append(blocks, m.Blocks...)
	}
	sort.Slice(blocks, func(a, b int) bool { return blocks[a].MinTime < blocks[b].MinTime })
	var bounds []int64
	var prevMax int64 // max MaxTime of blocks[:i]
	for i, b := range blocks {
		clean := (i == 0 || prevMax < b.MinTime) &&
			(i+1 == len(blocks) || b.MaxTime < blocks[i+1].MinTime) &&
			b.Count >= minPoints && b.MinTime >= minT && b.MaxTime <= maxT
		if i == 0 || b.MaxTime > prevMax {
			prevMax = b.MaxTime
		}
		if clean {
			bounds = append(bounds, b.MinTime)
			if b.MaxTime < math.MaxInt64 {
				bounds = append(bounds, b.MaxTime+1)
			}
		}
	}
	return bounds
}

// levelBound is level n's total-size bound:
// DefaultLevelBaseBytes · DefaultLevelGrowth^n (tests shrink both).
func (e *Engine) levelBound(level int) int64 {
	b := e.cfg.levelBaseBytes
	for i := 0; i < level; i++ {
		b *= int64(e.cfg.levelGrowth)
	}
	return b
}

// notePass records one completed merge pass and its input volume.
func (e *Engine) notePass(bytes int64) {
	e.compactionPasses.Add(1)
	e.compactionBytesRead.Add(bytes)
	for {
		cur := e.maxCompactionPass.Load()
		if bytes <= cur || e.maxCompactionPass.CompareAndSwap(cur, bytes) {
			return
		}
	}
}

// swapCompacted replaces the input files with the output files in
// e.files, inserting the outputs at the oldest input's position so
// newest-wins ranks are preserved (everything older than every input
// stays older; everything newer stays newer; files between input
// positions belong to other partitions and share no timestamps).
func (e *Engine) swapCompacted(inputs map[*fileHandle]bool, outputs []*fileHandle) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return errClosed
	}
	pos := -1
	for i, fh := range e.files {
		if inputs[fh] {
			pos = i
			break
		}
	}
	kept := make([]*fileHandle, 0, len(e.files))
	for i, fh := range e.files {
		if i == pos {
			kept = append(kept, outputs...)
		}
		if !inputs[fh] {
			kept = append(kept, fh)
		}
	}
	if pos < 0 {
		kept = append(kept, outputs...)
	}
	e.files = kept
	return nil
}

// retireInputs drops the files-list reference of each compacted input
// and unlinks it. In-flight queries holding their own references keep
// the reader open (and, on POSIX, the unlinked file readable) until
// they finish.
func (e *Engine) retireInputs(inputs []*fileHandle) error {
	var firstErr error
	dirs := map[string]bool{}
	for _, fh := range inputs {
		dirs[filepath.Dir(fh.path)] = true
		if err := fh.release(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := e.fs.Remove(fh.path); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if e.walDurable && firstErr == nil {
		names := make([]string, 0, len(dirs))
		for d := range dirs {
			names = append(names, d)
		}
		sort.Strings(names)
		for _, d := range names {
			if err := e.fs.SyncDir(d); err != nil {
				firstErr = err
				break
			}
		}
	}
	return firstErr
}

// pickCompaction scans the levels for one over threshold and returns
// a pinned oldest-first prefix of its files as the next pass's inputs
// (nil when nothing is due). A level triggers at its size bound with
// at least two files present — and L0 additionally at
// DefaultL0CompactFiles files — and the terminal level never
// triggers. The selected prefix stops once it would exceed the level
// bound (after the two-file minimum), so a pass never reads more than
// one level's bound.
func (e *Engine) pickCompaction() (inputs []*fileHandle, part int64, level int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, 0, 0
	}
	type key struct {
		part  int64
		level int
	}
	groups := map[key][]*fileHandle{}
	var keys []key
	for _, fh := range e.files {
		if fh.level >= e.cfg.maxLevel {
			continue
		}
		k := key{fh.part, fh.level}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], fh)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].part != keys[b].part {
			return keys[a].part < keys[b].part
		}
		return keys[a].level < keys[b].level
	})
	for _, k := range keys {
		fhs := groups[k]
		var total int64
		for _, fh := range fhs {
			total += fh.size
		}
		bound := e.levelBound(k.level)
		due := total >= bound && len(fhs) >= 2
		if k.level == 0 && len(fhs) >= e.cfg.l0CompactFiles {
			due = true
		}
		if !due {
			continue
		}
		var take []*fileHandle
		var cum int64
		for _, fh := range fhs {
			if len(take) >= 2 && cum+fh.size > bound {
				break
			}
			take = append(take, fh)
			cum += fh.size
		}
		for _, fh := range take {
			fh.acquire()
		}
		return take, k.part, k.level
	}
	return nil, 0, 0
}

// writeMerged writes the merge of inputs (oldest first) over
// [minT, maxT] as the next sequence-numbered file of partition part at
// level, and opens it.
func (e *Engine) writeMerged(part int64, level int, inputs []*fileHandle, minT, maxT int64) (*fileHandle, error) {
	e.mu.Lock()
	e.fileSeq++
	seq := e.fileSeq
	e.mu.Unlock()
	path := filepath.Join(e.cfg.Dir, fmt.Sprintf("p%d", part), fmt.Sprintf("L%d", level),
		fmt.Sprintf("seq-%06d.gtsf", seq))
	err := e.writeChunkFile(path, false, func(w *tsfile.Writer) error {
		return mergeInto(w, inputs, minT, maxT)
	})
	if err != nil {
		return nil, fmt.Errorf("engine: compact p%d/L%d: %w", part, level, err)
	}
	r, err := tsfile.Open(path)
	if err != nil {
		e.fs.Remove(path)
		return nil, err
	}
	out := newFileHandle(path, r, false)
	out.part, out.level, out.seqNo = part, level, seq
	return out, nil
}

// compactPass merges inputs (one partition, one level, pinned by
// pickCompaction) into a single file at the next level.
func (e *Engine) compactPass(part int64, level int, inputs []*fileHandle) error {
	defer func() {
		for _, fh := range inputs {
			fh.release() // the pickCompaction pin
		}
	}()
	var passBytes int64
	for _, fh := range inputs {
		passBytes += fh.size
	}
	out, err := e.writeMerged(part, level+1, inputs, math.MinInt64, math.MaxInt64)
	if err != nil {
		return err
	}
	inSet := make(map[*fileHandle]bool, len(inputs))
	for _, fh := range inputs {
		inSet[fh] = true
	}
	if err := e.swapCompacted(inSet, []*fileHandle{out}); err != nil {
		out.release()
		e.fs.Remove(out.path)
		return err
	}
	e.notePass(passBytes)
	return e.retireInputs(inputs)
}

// maybeCompact runs bounded leveled passes until no level is over its
// threshold. It is called after each flush publishes; passes are
// serialized on compactMu and never hold the engine lock while
// merging. Each pass folds at least two files into one, so the
// loop terminates. Failures are recorded like flush failures and stop
// further passes; the inputs stay live, so no data is at risk. A pass
// that Close overtakes is abandoned, not a failure.
func (e *Engine) maybeCompact() {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	for {
		inputs, part, level := e.pickCompaction()
		if inputs == nil {
			return
		}
		if err := e.compactPass(part, level, inputs); err != nil {
			if !errors.Is(err, errClosed) {
				e.recordFlushErr(err)
			}
			return
		}
	}
}

// Compact folds the whole store: every partition's files fold into
// one terminal-level (DefaultMaxLevel) file per partition, and legacy
// root-level files are migrated — each one's points are split at
// partition boundaries and folded into the partitions they belong to.
// A partition already reduced to one file is left alone: every file
// the engine serves is strict (Open upgrades the rest), so rewriting
// it alone would change nothing.
// Newest-wins semantics for rewritten timestamps are preserved, and
// queries that snapshotted the old files keep reading them through
// their reference counts even after the files are unlinked. As a
// fold-everything operation it is exempt from the per-pass level
// bound that caps the automatic path.
func (e *Engine) Compact() error {
	// One compaction at a time: concurrent passes would race to retire
	// the same handles.
	e.compactMu.Lock()
	defer e.compactMu.Unlock()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return errClosed
	}
	old := append([]*fileHandle(nil), e.files...)
	// Pin the inputs for the read phase, which runs outside e.mu.
	for _, fh := range old {
		fh.acquire()
	}
	e.mu.Unlock()
	defer func() {
		for _, fh := range old {
			fh.release()
		}
	}()

	// Every legacy file is retired, even one that holds no points.
	inputsUsed := map[*fileHandle]bool{}
	partSet := map[int64]bool{}
	for _, fh := range old {
		if fh.legacyParts == nil {
			partSet[fh.part] = true
			continue
		}
		inputsUsed[fh] = true
		for p := range fh.legacyParts {
			partSet[p] = true
		}
	}
	parts := make([]int64, 0, len(partSet))
	for p := range partSet {
		parts = append(parts, p)
	}
	sort.Slice(parts, func(a, b int) bool { return parts[a] < parts[b] })

	var outputs []*fileHandle
	fail := func(err error) error {
		for _, out := range outputs {
			out.release()
			e.fs.Remove(out.path)
		}
		return err
	}
	for _, p := range parts {
		lo, hi := e.partitionBounds(p)
		var inputs []*fileHandle
		for _, fh := range old { // e.files order = oldest first
			if (fh.legacyParts == nil && fh.part == p) || fh.legacyParts[p] {
				inputs = append(inputs, fh)
			}
		}
		if len(inputs) == 1 && inputs[0].legacyParts == nil {
			continue
		}
		out, err := e.writeMerged(p, e.cfg.maxLevel, inputs, lo, hi)
		if err != nil {
			return fail(err)
		}
		outputs = append(outputs, out)
		for _, fh := range inputs {
			inputsUsed[fh] = true
		}
	}
	if len(inputsUsed) == 0 {
		return nil
	}
	if err := e.swapCompacted(inputsUsed, outputs); err != nil {
		// The engine shut down mid-compaction. Leave the old files —
		// they are still the durable truth — and drop the new ones.
		return fail(err)
	}
	var passBytes int64
	retired := make([]*fileHandle, 0, len(inputsUsed))
	for _, fh := range old {
		if inputsUsed[fh] {
			retired = append(retired, fh)
			passBytes += fh.size
		}
	}
	e.notePass(passBytes)
	return e.retireInputs(retired)
}

// pointPartitions returns the partitions r's points occupy. It decodes
// every chunk, so it also checks every block's CRC.
func (e *Engine) pointPartitions(r *tsfile.Reader) (map[int64]bool, error) {
	set := map[int64]bool{}
	for _, m := range r.Index() {
		ts, _, err := r.ReadChunk(m)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			set[e.partitionOf(t)] = true
		}
	}
	return set, nil
}

// DropPartitionsBefore removes every time partition wholly before
// cutoff — each is one directory unlink, O(1) in the partition's data
// volume. A partition [p·d, (p+1)·d) qualifies when its last covered
// instant precedes cutoff, i.e. (p+1)·d <= cutoff; the last partition
// ends at MaxInt64 and never qualifies. The separation watermarks are
// deliberately not rewound: re-inserting a dropped timestamp still
// routes through the unsequence path, exactly as any rewrite of
// flushed history does. Returns the number of partitions removed.
func (e *Engine) DropPartitionsBefore(cutoff int64) (int, error) {
	e.compactMu.Lock() // no pass may be mid-merge over a dropped partition
	defer e.compactMu.Unlock()
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, errClosed
	}
	var kept, victims []*fileHandle
	for _, fh := range e.files {
		if _, hi := e.partitionBounds(fh.part); hi < cutoff {
			victims = append(victims, fh)
			continue
		}
		kept = append(kept, fh)
	}
	e.files = kept
	e.mu.Unlock()
	var firstErr error
	for _, fh := range victims {
		if err := fh.release(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Unlink expired partition directories. Scanning the directory
	// (rather than the victim handles) also reclaims partitions whose
	// files were already compacted away or quarantined.
	entries, err := os.ReadDir(e.cfg.Dir)
	if err != nil {
		return 0, err
	}
	dropped := 0
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		p, ok := parsePartitionDir(ent.Name())
		if !ok {
			continue
		}
		if _, hi := e.partitionBounds(p); hi >= cutoff {
			continue
		}
		if err := os.RemoveAll(filepath.Join(e.cfg.Dir, ent.Name())); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		dropped++
	}
	if dropped > 0 {
		e.partitionsDropped.Add(int64(dropped))
		if e.walDurable && firstErr == nil {
			firstErr = e.fs.SyncDir(e.cfg.Dir)
		}
	}
	return dropped, firstErr
}

// FileCount reports how many flushed files the engine currently holds
// (Compact reduces it to one per partition).
func (e *Engine) FileCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.files)
}
