package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/engine"
	"repro/internal/httpgw"
	"repro/internal/index"
	"repro/internal/labels"
	"repro/internal/memtable"
	"repro/internal/query"
	"repro/internal/shard"
	"repro/internal/sortalgo"
	"repro/internal/tsfile"
	"repro/internal/tsql"
	"repro/internal/tvlist"
	"repro/internal/wal"
)

// Layer replay: after the workload, with the server stopped, one
// goroutine feeds a fixed sample of the workload's own generated
// inputs through each layer's public functions and reports the cost
// per point. Nothing else runs, so the allocation counts repeat
// exactly and the times are each layer's cost without contention.

const (
	replayChunkMax = memTableSize / 2 // one sensor's share of a memtable in paper_mixed
	replayChunks   = 4
	replayRuns     = 5 // timed repetitions; the fastest is reported
)

// replayTimer times the replay's steps and keeps the first error any
// of them returned, so the steps read as a list.
type replayTimer struct{ err error }

// run calls fn replayRuns times and returns the fastest run's duration
// and the allocations of one run.
func (rt *replayTimer) run(fn func() error) (best time.Duration, allocs float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for i := 0; i < replayRuns; i++ {
		t0 := time.Now()
		err := fn()
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
		if err != nil && rt.err == nil {
			rt.err = err
		}
	}
	runtime.ReadMemStats(&ms)
	return best, float64(ms.Mallocs-mallocs) / replayRuns
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// replayLayers measures every layer on the first arrivals of s,
// replayChunks memtable-sized chunks of them (smaller when the series
// is shorter than that), and adds the results to m.
func replayLayers(m metricSet, s *series, sz sizes, dir string) error {
	replayChunk := replayChunkMax
	if s.st == nil {
		replayChunk = min(replayChunk, len(s.tab)/replayChunks/rpcBatch*rpcBatch)
	}
	n := replayChunk * replayChunks
	times := make([]int64, n)
	vals := make([]float64, n)
	scratch := make([]float64, rpcBatch)
	for k := 0; k < n; k += rpcBatch {
		copy(vals[k:], s.fill(s.inOrder+int64(k), times[k:k+rpcBatch], scratch))
	}
	sortedT, sortedV := sortedCopy(times, vals)

	// rpc: the size of an insert frame's payload (sensor, count, then a
	// varint time and 8 value bytes per point), from the wire format.
	wire := len(binary.AppendUvarint(nil, uint64(len(s.name)))) + len(s.name) + len(binary.AppendUvarint(nil, rpcBatch))
	for _, t := range times[:rpcBatch] {
		wire += len(binary.AppendVarint(nil, t)) + 8
	}
	m.set("rpc.wire_bytes_per_point", float64(wire)/rpcBatch)

	var rt replayTimer

	// httpgw: parsing one line-protocol body of the http workload's shape.
	var body bytes.Buffer
	const bodyPoints = 512
	for i := 0; i < bodyPoints; i++ {
		fmt.Fprintf(&body, "m,dev=d%03d v=%s %d\n", i%8, strconv.FormatFloat(vals[i], 'g', -1, 64), times[i])
	}
	d, allocs := rt.run(func() error {
		_, err := httpgw.ParseLineProtocol(body.Bytes(), nil)
		return err
	})
	m.set("httpgw.parse_ns_per_point", nsPer(d, bodyPoints))
	m.set("httpgw.parse_allocs_per_point", allocs/bodyPoints)

	// shard: the routing hash.
	const hashCalls = 100000
	d, _ = rt.run(func() error {
		for i := 0; i < hashCalls; i++ {
			shard.Index(s.name, shardCount)
		}
		return nil
	})
	m.set("shard.index_ns_per_call", nsPer(d, hashCalls))

	// wal: appending the sample in RPC-sized batches.
	walPath := filepath.Join(dir, "replay.wal")
	d, _ = rt.run(func() error {
		seg, err := wal.Create(walPath)
		if err != nil {
			return err
		}
		for k := 0; k < n; k += rpcBatch {
			if err := seg.Append(s.name, times[k:k+rpcBatch], vals[k:k+rpcBatch]); err != nil {
				seg.Close()
				return err
			}
		}
		return seg.Close()
	})
	m.set("wal.append_ns_per_point", nsPer(d, n))
	if info, err := os.Stat(walPath); err == nil {
		m.set("wal.bytes_per_point", float64(info.Size())/float64(n))
	}

	// memtable: the per-point write the engine does under its lock.
	d, allocs = rt.run(func() error {
		mt := memtable.New(0)
		for i, t := range times {
			mt.Write(s.name, t, vals[i])
		}
		return nil
	})
	m.set("memtable.write_ns_per_point", nsPer(d, n))
	m.set("memtable.allocs_per_point", allocs/float64(n))

	// adaptive: the disorder sketch (off in the profile; measured so its
	// cost is known before it becomes the only router).
	d, _ = rt.run(func() error {
		var sk adaptive.Sketch
		for _, t := range times {
			sk.Observe(t)
		}
		return nil
	})
	m.set("adaptive.observe_ns_per_point", nsPer(d, n))

	// tvlist and core: sorting memtable-sized chunks in arrival order,
	// through the engine's two routes and through the bare kernels.
	lists := make([]*tvlist.TVList[float64], replayChunks)
	for c := range lists {
		lists[c] = tvlist.NewDouble()
		for i := c * replayChunk; i < (c+1)*replayChunk; i++ {
			lists[c].Put(times[i], vals[i])
		}
	}
	var clones []*tvlist.TVList[float64]
	cloneAll := func() error {
		clones = clones[:0]
		for _, l := range lists {
			clones = append(clones, l.Clone())
		}
		return nil
	}
	cloneTime, _ := rt.run(cloneAll)
	m.set("tvlist.snapshot_ns_per_point", nsPer(cloneTime, n))
	backward := sortalgo.MustGet(algorithm)
	// Each timed run needs unsorted input, so the clone is timed with
	// the sort and the clone's own time taken off.
	d, _ = rt.run(func() error {
		cloneAll()
		for _, l := range clones {
			l.EnsureSortedFlat(core.FlatOptions{})
		}
		return nil
	})
	m.set("tvlist.sort_flat_ns_per_point", nsPer(max(d-cloneTime, 0), n))
	d, _ = rt.run(func() error {
		cloneAll()
		for _, l := range clones {
			l.EnsureSorted(backward)
		}
		return nil
	})
	m.set("tvlist.sort_iface_ns_per_point", nsPer(max(d-cloneTime, 0), n))

	tcopy, vcopy := make([]int64, n), make([]float64, n)
	unsort := func() error { copy(tcopy, times); copy(vcopy, vals); return nil }
	copyTime, _ := rt.run(unsort)
	var traces []core.Trace
	d, _ = rt.run(func() error {
		unsort()
		traces = traces[:0]
		for c := 0; c < replayChunks; c++ {
			lo, hi := c*replayChunk, (c+1)*replayChunk
			traces = append(traces, core.SortFlat(tcopy[lo:hi], vcopy[lo:hi], core.FlatOptions{}))
		}
		return nil
	})
	m.set("core.sortflat_ns_per_point", nsPer(max(d-copyTime, 0), n))
	d, _ = rt.run(func() error {
		unsort()
		for c := 0; c < replayChunks; c++ {
			lo, hi := c*replayChunk, (c+1)*replayChunk
			core.BackwardSort(core.NewPairs(tcopy[lo:hi], vcopy[lo:hi]), core.Options{})
		}
		return nil
	})
	m.set("core.backward_ns_per_point", nsPer(max(d-copyTime, 0), n))
	var blockSizes []float64
	var iters, overlap, merges float64
	for _, tr := range traces {
		blockSizes = append(blockSizes, float64(tr.BlockSize))
		iters += float64(tr.SearchIterations)
		overlap += float64(tr.OverlapTotal)
		merges += float64(tr.Merges)
	}
	m.set("core.block_size_median", median(blockSizes))
	m.set("core.search_iters_avg", iters/replayChunks)
	m.set("core.overlap_avg", ratio(overlap, merges))

	// encoding: the two column codecs on the sorted sample.
	var tsEnc, valEnc []byte
	d, _ = rt.run(func() error { tsEnc = encoding.AppendTS2Diff(tsEnc[:0], sortedT); return nil })
	m.set("encoding.ts2diff_enc_ns_per_point", nsPer(d, n))
	d, _ = rt.run(func() error { valEnc = encoding.AppendGorilla(valEnc[:0], sortedV); return nil })
	m.set("encoding.gorilla_enc_ns_per_point", nsPer(d, n))
	d, _ = rt.run(func() error { _, _, err := encoding.DecodeTS2Diff(tsEnc); return err })
	m.set("encoding.ts2diff_dec_ns_per_point", nsPer(d, n))
	d, _ = rt.run(func() error { _, _, err := encoding.DecodeGorilla(valEnc); return err })
	m.set("encoding.gorilla_dec_ns_per_point", nsPer(d, n))
	m.set("encoding.bytes_per_point", float64(len(tsEnc)+len(valEnc))/float64(n))

	// tsfile: encode, write, open and read back one chunk of the sample.
	var enc *tsfile.EncodedChunk
	d, _ = rt.run(func() (err error) {
		enc, err = tsfile.EncodeChunkBlocks(s.name, sortedT, sortedV, engine.DefaultBlockPoints)
		return err
	})
	m.set("tsfile.encode_ns_per_point", nsPer(d, n))
	if rt.err != nil {
		return fmt.Errorf("replay: %w", rt.err)
	}
	filePath := filepath.Join(dir, "replay.gtsf")
	d, _ = rt.run(func() error {
		w, err := tsfile.Create(filePath)
		if err != nil {
			return err
		}
		w.BlockPoints = engine.DefaultBlockPoints
		if err := w.AppendEncoded(enc); err != nil {
			w.Close()
			return err
		}
		return w.Close()
	})
	m.set("tsfile.write_ns_per_point", nsPer(d, n))
	if info, err := os.Stat(filePath); err == nil {
		m.set("tsfile.bytes_per_point", float64(info.Size())/float64(n))
	}
	var rd *tsfile.Reader
	d, _ = rt.run(func() (err error) {
		if rd != nil {
			rd.Close()
		}
		rd, err = tsfile.Open(filePath)
		return err
	})
	if rt.err != nil {
		return fmt.Errorf("replay: %w", rt.err)
	}
	defer rd.Close()
	m.set("tsfile.open_us", float64(d.Nanoseconds())/1e3)
	d, _ = rt.run(func() error {
		for _, chunk := range rd.Index() {
			for _, b := range chunk.Blocks {
				if _, _, err := rd.ReadBlock(chunk, b); err != nil {
					return err
				}
			}
		}
		return nil
	})
	m.set("tsfile.read_block_ns_per_point", nsPer(d, n))

	// query: aggregating decoded points, and merging a fan-out's windows.
	pts := make([]engine.TV, n)
	for i := range pts {
		pts[i] = engine.TV{T: sortedT[i], V: sortedV[i]}
	}
	d, _ = rt.run(func() error {
		_, err := query.AggregateWindows(pts, sortedT[0], sortedT[n-1]+1, sz.aggDecodeWin, query.Avg)
		return err
	})
	m.set("query.agg_ns_per_point", nsPer(d, n))
	perSeries := make([][]query.WindowResult, sz.labelSeries/len(regions))
	for i := range perSeries {
		for w := int64(0); w < 16; w++ {
			perSeries[i] = append(perSeries[i], query.WindowResult{Start: w * sz.fanoutWindow, Count: 16, Value: float64(i)})
		}
	}
	d, _ = rt.run(func() error {
		_, err := query.MergeWindows(query.Avg, perSeries)
		return err
	})
	m.set("query.merge_windows_us", float64(d.Nanoseconds())/1e3)

	// tsql: parsing the fan-out statement.
	const stmt = `SELECT avg(value) FROM series{region=~"west-.*"} WHERE time >= 0 AND time <= 63999 GROUP BY WINDOW(4000)`
	const parses = 1000
	d, _ = rt.run(func() error {
		for i := 0; i < parses; i++ {
			if _, err := tsql.Parse(stmt); err != nil {
				return err
			}
		}
		return nil
	})
	m.set("tsql.parse_us", float64(d.Nanoseconds())/1e3/parses)
	if rt.err != nil {
		return fmt.Errorf("replay: %w", rt.err)
	}

	// index: resolving the fan-out's selector on a catalog of the
	// read_disk workload's shape.
	idx, err := index.Open(filepath.Join(dir, "replay-index"), index.Options{})
	if err != nil {
		return fmt.Errorf("replay index: %w", err)
	}
	defer idx.Close()
	for i := 0; i < sz.labelSeries; i++ {
		ls := labels.MustNew(
			labels.Label{Name: "region", Value: regions[i%len(regions)]},
			labels.Label{Name: "host", Value: fmt.Sprintf("h%04d", i)},
		)
		if _, _, err := idx.EnsureSeries(ls); err != nil {
			return fmt.Errorf("replay index: %w", err)
		}
	}
	west := []*labels.Matcher{labels.MustMatcher(labels.MatchRe, "region", "west-.*")}
	selects := make([]float64, 200)
	for i := range selects {
		t0 := time.Now()
		idx.Select(west)
		selects[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	m.set("index.select_us_p50", median(selects))
	return nil
}

// sortedCopy returns the sample in time order, as flush would encode it.
func sortedCopy(times []int64, vals []float64) ([]int64, []float64) {
	order := make([]int, len(times))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return times[order[a]] < times[order[b]] })
	st, sv := make([]int64, len(times)), make([]float64, len(times))
	for i, j := range order {
		st[i], sv[i] = times[j], vals[j]
	}
	return st, sv
}
