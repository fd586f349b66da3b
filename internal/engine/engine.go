// Package engine implements the miniature time series storage engine
// the system experiments run against — a Go stand-in for the parts of
// Apache IoTDB the paper exercises (Section V):
//
//   - writes land in a *working* memtable (one TVList per sensor);
//   - the *separation policy*: a point whose timestamp is not newer
//     than the sensor's last flushed time goes to the *unsequence*
//     memtable, so the sequence path only ever sees delays into the
//     not-too-distant future (Section II);
//   - when the memtable is full it becomes immutable (*flushing*) and
//     is drained asynchronously: each TVList is sorted with the
//     configured algorithm and encoded, at most FlushWorkers at once,
//     then written to a TsFile-like chunk file in deterministic sensor
//     order — the flush-time metric of Figures 16–18 measures exactly
//     this state-transition-to-disk window;
//   - queries snapshot the engine state under the engine lock and do
//     their sorting outside it. IoTDB's original query-blocks-writes
//     behavior (Section VI-D1, the contention of Figures 13–15) is
//     preserved behind Config.PaperProfile for the paper reproduction.
package engine

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/memtable"
	"repro/internal/sortalgo"
	"repro/internal/tsfile"
	"repro/internal/tvlist"
	"repro/internal/wal"
)

// WAL sync policies (Config.WALSync).
const (
	// WALSyncNone acknowledges writes once they reach the OS page
	// cache: process crashes lose nothing, machine crashes may. This is
	// IoTDB's wal_buffer default and the paper's timing profile;
	// cmd/repro uses it.
	WALSyncNone = "none"
	// WALSyncInterval fsyncs the active segment in the background every
	// Config.WALSyncPeriod: a machine crash loses at most one period.
	WALSyncInterval = "interval"
	// WALSyncAlways acknowledges a write only after its WAL record is
	// fsynced. Concurrent inserts share fsyncs via group commit, so the
	// cost per batch shrinks as concurrency grows.
	WALSyncAlways = "always"
)

// errClosed is returned by every operation on a closed engine.
var errClosed = errors.New("engine: closed")

// DefaultWALSyncPeriod is the background fsync cadence under
// WALSyncInterval when Config.WALSyncPeriod is zero.
const DefaultWALSyncPeriod = 200 * time.Millisecond

// DefaultMemTableSize is the flush threshold in points. The paper uses
// 100,000 as "the appropriate memory points size in the IoTDB".
const DefaultMemTableSize = 100000

// DefaultBlockPoints is the target points per block of every flushed
// and compacted chunk.
const DefaultBlockPoints = tsfile.DefaultBlockPoints

// Leveled-compaction bounds: a partition's L0 merges at
// DefaultL0CompactFiles files, level n is bounded by
// DefaultLevelBaseBytes · DefaultLevelGrowth^n bytes, and automatic
// compaction creates levels up to DefaultMaxLevel.
const (
	DefaultL0CompactFiles = 4
	DefaultLevelBaseBytes = 4 << 20
	DefaultLevelGrowth    = 10
	DefaultMaxLevel       = 4
)

// DefaultPartitionDuration is the time-partition width when
// Config.PartitionDuration is zero: one week of UNIX-nanosecond
// timestamps, the HTTP gateway's timestamp unit and IoTDB's default
// partition interval.
const DefaultPartitionDuration = int64(7 * 24 * time.Hour)

// Config configures an Engine.
type Config struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// MemTableSize is the point-count flush threshold across all
	// sensors (default DefaultMemTableSize).
	MemTableSize int
	// Algorithm names the sorting algorithm (sortalgo registry;
	// default "backward"). Only "backward" has a flat kernel; any
	// other algorithm sorts through the interface.
	Algorithm string
	// SyncFlush makes flushes run inline on the triggering Insert,
	// for deterministic tests. Production-style async is the default.
	SyncFlush bool
	// FlushWorkers bounds how many sensor chunks are sorted and
	// encoded at once across the engine's flushes (default
	// GOMAXPROCS). 1 keeps the drain fully sequential, as the original
	// IoTDB-style pipeline was.
	FlushWorkers int
	// PaperProfile runs the engine as the paper benchmarked IoTDB:
	// queries sort the live working TVLists in place while holding the
	// engine lock (the query-blocks-writes contention of Figures
	// 13–15), every sort goes through the core.Sortable interface
	// with the registry algorithm, and working chunks are IoTDB's
	// List<Array> of tvlist.DefaultArrayLen — no flat kernel. Off by
	// default: working chunks are contiguous, queries snapshot under
	// the lock and sort outside it, and every sort is the flat kernel
	// choosing its block size by the paper's search (Algorithm 1
	// lines 1–8). cmd/repro turns it on so the reproduced figures keep
	// measuring the paper's algorithm and locking, not this
	// repository's.
	PaperProfile bool
	// WAL enables the write-ahead log: every batch is logged before
	// it is acknowledged, and unflushed memtable contents are
	// replayed (and immediately flushed) on Open. Off by default —
	// the paper's experiments do not exercise it.
	WAL bool
	// WALSync selects the WAL durability policy: WALSyncNone (default),
	// WALSyncInterval, or WALSyncAlways. Only meaningful when WAL is
	// on. Any policy other than none also makes chunk publication
	// durable: flushed files are fsynced before their rename into
	// place, and the data directory is fsynced after segment and chunk
	// lifecycle changes.
	WALSync string
	// WALSyncPeriod is the background fsync cadence under
	// WALSyncInterval (default DefaultWALSyncPeriod).
	WALSyncPeriod time.Duration
	// FS is the filesystem seam for the write path (default
	// faultfs.OS). Crash tests inject fault filesystems here; it
	// threads through the WAL, chunk-file writes, renames and removes.
	FS faultfs.FS
	// SharedPool, when set, replaces the engine's own flush bound with
	// one shared across engines (the shard layer uses this so N shards
	// stay within one machine-wide sort/encode bound). FlushWorkers is
	// ignored then.
	SharedPool *SharedFlushPool
	// PartitionDuration is the width of a time partition, in timestamp
	// units (default DefaultPartitionDuration; negative is an error).
	// Flush output lands under p<epoch>/L0/ (epoch =
	// floor(t / PartitionDuration)), per-level size bounds trigger
	// bounded merges into the next level after each flush (not under
	// PaperProfile), and whole expired partitions drop in O(1) via
	// DropPartitionsBefore.
	PartitionDuration int64

	// Package tests that need many blocks or levels from few points
	// override DefaultBlockPoints and the leveled-compaction bounds
	// here; zero keeps the default.
	blockPoints, l0CompactFiles, levelGrowth, maxLevel int
	levelBaseBytes                                     int64
}

// TV is one query result record.
type TV struct {
	T int64
	V float64
}

// Engine is the storage engine. All methods are safe for concurrent
// use.
type Engine struct {
	cfg  Config
	algo sortalgo.Func
	pool *SharedFlushPool // Config.SharedPool, or the engine's own

	// Durability plumbing, resolved at Open: the filesystem seam, the
	// sync policy split into its two consequences (walDurable: segment
	// and chunk lifecycle ops fsync; walAlways: inserts ack only after
	// a group commit), and the WAL-wide fsync counters shared by every
	// segment this engine creates.
	fs         faultfs.FS
	walDurable bool
	walAlways  bool
	walStats   wal.SyncStats

	// Recovery outcomes, written only inside Open and read-only
	// afterwards, so they need no lock.
	quarantined      int
	recoveredBatches int64

	// Interval-sync ticker lifecycle (WALSyncInterval only).
	walTickStop chan struct{}
	walTickDone chan struct{}

	// flat makes sortChunk sort with the flat kernel: the algorithm is
	// "backward" outside the paper profile.
	flat bool

	// mu is the engine lock. It guards the mutable engine state: the
	// working memtables, the flushing list, the files list, the
	// watermarks and the sequence counters. Unless Config.PaperProfile
	// is set, queries hold it only long enough to snapshot — never
	// across a sort.
	mu          sync.Mutex
	working     *memtable.MemTable // sequence writes
	workingUn   *memtable.MemTable // unsequence writes (separation policy)
	flushing    []*flushUnit
	lastFlushed map[string]int64 // per-sensor separation watermark
	latest      map[string]int64 // per-sensor max ingested time ("current")
	files       []*fileHandle
	fileSeq     int
	walSeq      int
	walSeg      *wal.Segment  // active segment covering the working memtables
	lastUnit    chan struct{} // done of the newest flushing unit rotated
	closed      bool

	// Flush timings, added by each drain when it publishes its files,
	// so a Stats snapshot never shows a drain's files without its
	// flush counted.
	flushTotal  time.Duration
	sortTotal   time.Duration
	encodeTotal time.Duration
	writeTotal  time.Duration
	flushCount  int

	flushWG   sync.WaitGroup
	compactMu sync.Mutex // serializes compaction passes; taken before mu, never under it

	// Close runs once; every caller waits for it and returns its
	// result.
	closeOnce sync.Once
	closeErr  error

	// flushErr holds the first background flush failure, surfaced on
	// Query/Close. Every other counter below is a lock-free atomic.
	flushErr atomic.Pointer[error]

	seqPoints      atomic.Int64
	unseqPoints    atomic.Int64
	lockHist       lockWaitHist
	queriesBlocked atomic.Int64
	sortsSkipped   atomic.Int64

	// Sort-path observability (lock-free; drains and queries both
	// feed them through sortChunk).
	flatSorts      atomic.Int64
	ifaceSorts     atomic.Int64
	flatSortNanos  atomic.Int64
	ifaceSortNanos atomic.Int64
	querySorted    atomic.Int64

	// Aggregation-pushdown observability (lock-free; Query and
	// AggregateWindows feed them).
	chunksFromStats atomic.Int64
	chunksDecoded   atomic.Int64
	pointsSkipped   atomic.Int64

	// Read-amplification observability (lock-free; the file read path
	// feeds them).
	bytesRead       atomic.Int64
	blocksDecoded   atomic.Int64
	blocksSkipped   atomic.Int64
	blocksFromStats atomic.Int64

	// Compaction/partition observability.
	compactionPasses    atomic.Int64
	compactionBytesRead atomic.Int64
	maxCompactionPass   atomic.Int64
	partitionsDropped   atomic.Int64
}

// flushUnit is one immutable memtable pair being drained. Its chunks
// are read through tvlist.View like working chunks; only under the
// paper profile do drain workers and queries sort them in place, and
// chunkLocks — built at rotation for the paper profile alone, and
// read-only afterwards, so lookups need no extra locking — serializes
// those sorts per chunk.
type flushUnit struct {
	seq        *memtable.MemTable
	unseq      *memtable.MemTable
	walSeg     *wal.Segment // segment covering this generation, if WAL is on
	started    time.Time
	chunkLocks map[*tvlist.TVList[float64]]*sync.Mutex
	// Drains sort and encode in parallel but write and publish in
	// rotation order, so a newer generation's files never rank below
	// an older one's, in the files list or by sequence number: a drain
	// writes only once the previous unit's drain closed after, and
	// closes done once its own files are published (or it failed).
	after <-chan struct{}
	done  chan struct{}
}

func (u *flushUnit) lockChunk(c *tvlist.TVList[float64]) *sync.Mutex {
	return u.chunkLocks[c]
}

// fileHandle is one flushed file with its cached chunk index. Handles
// are reference-counted: the engine's files list holds one reference
// and every query that snapshots the list takes another for the
// duration of its reads, so retiring a file (Close, compaction)
// cannot close a reader out from under a query that released the
// engine lock.
type fileHandle struct {
	path   string
	reader *tsfile.Reader
	index  []tsfile.ChunkMeta // the reader's own index (tsfile.Reader.SharedIndex): read-only
	// chunks maps each sensor to the positions of its chunks in index,
	// in index order, which is time order: a file's chunks of one
	// sensor are strictly time-ordered, though other sensors' chunks
	// may sit between them. Built once at open, it is how every
	// per-sensor lookup finds its chunks without walking the index.
	chunks map[string][]int32
	unseq  bool
	refs   atomic.Int64
	size   int64 // on-disk bytes, for level bounds and pass accounting
	// minTime and maxTime bound every timestamp in the file, so a query
	// skips a file outside its range without snapshotting it.
	minTime, maxTime int64
	// Placement: partition p<part>/, level L<level>/. A legacy file —
	// one a flat-layout store left at the root of the directory — lives
	// only inside Open, which folds it into partitions; legacyParts is
	// non-nil for it alone and holds the partitions its points occupy.
	legacyParts map[int64]bool
	part        int64
	level       int
	seqNo       int
}

func newFileHandle(path string, r *tsfile.Reader, unseq bool) *fileHandle {
	h := &fileHandle{path: path, reader: r, index: r.SharedIndex(), unseq: unseq,
		minTime: math.MaxInt64, maxTime: math.MinInt64}
	// Sized by the index's runs of one sensor, which bound its sensors
	// and equal them when a writer groups each sensor's chunks: a
	// one-sensor file gets a one-entry map, not one per chunk.
	runs := 0
	for i := range h.index {
		if i == 0 || h.index[i].Sensor != h.index[i-1].Sensor {
			runs++
		}
	}
	h.chunks = make(map[string][]int32, runs)
	// A run of one sensor's chunks at positions [i, j) is pos[i:j],
	// capped, so every sensor of a grouping writer shares pos; a
	// sensor whose chunks a writer interleaved with others' (A, B, A)
	// copies its later runs onto its first by append.
	pos := make([]int32, len(h.index))
	for i := range h.index {
		m := &h.index[i]
		h.minTime, h.maxTime = min(h.minTime, m.MinTime), max(h.maxTime, m.MaxTime)
		pos[i] = int32(i)
	}
	for i := 0; i < len(h.index); {
		j := i + 1
		for j < len(h.index) && h.index[j].Sensor == h.index[i].Sensor {
			j++
		}
		if ps, ok := h.chunks[h.index[i].Sensor]; ok {
			h.chunks[h.index[i].Sensor] = append(ps, pos[i:j]...)
		} else {
			h.chunks[h.index[i].Sensor] = pos[i:j:j]
		}
		i = j
	}
	if st, err := os.Stat(path); err == nil {
		h.size = st.Size()
	}
	h.refs.Store(1)
	return h
}

func (h *fileHandle) acquire() { h.refs.Add(1) }

// release drops one reference, closing the reader when the last one
// goes.
func (h *fileHandle) release() error {
	if h.refs.Add(-1) == 0 {
		return h.reader.Close()
	}
	return nil
}

// Open creates or opens an engine over cfg.Dir. Flushed files from a
// previous run are recovered: their indexes are loaded, the separation
// watermarks restored from the sequence files, and their data becomes
// queryable again. A file an older writer left not strict is upgraded
// in place first (openStrict), so every file the engine serves is
// strict. Chunk files a flat-layout store left at the root are then
// folded into partitions once, before WAL replay. (Without the WAL,
// unflushed memtable contents are lost on crash — as in an IoTDB
// deployment without its write-ahead log, which the paper's
// experiments do not exercise.)
func Open(cfg Config) (*Engine, error) {
	if cfg.MemTableSize <= 0 {
		cfg.MemTableSize = DefaultMemTableSize
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = "backward"
	}
	algo, ok := sortalgo.Get(cfg.Algorithm)
	if !ok {
		return nil, fmt.Errorf("engine: unknown sort algorithm %q", cfg.Algorithm)
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("engine: Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	switch cfg.WALSync {
	case "", WALSyncNone, WALSyncInterval, WALSyncAlways:
	default:
		return nil, fmt.Errorf("engine: unknown WAL sync policy %q", cfg.WALSync)
	}
	if cfg.WALSyncPeriod <= 0 {
		cfg.WALSyncPeriod = DefaultWALSyncPeriod
	}
	fs := cfg.FS
	if fs == nil {
		fs = faultfs.OS
	}
	if cfg.PartitionDuration < 0 {
		return nil, fmt.Errorf("engine: negative PartitionDuration %d", cfg.PartitionDuration)
	}
	if cfg.PartitionDuration == 0 {
		cfg.PartitionDuration = DefaultPartitionDuration
	}
	if cfg.l0CompactFiles <= 0 {
		cfg.l0CompactFiles = DefaultL0CompactFiles
	}
	if cfg.levelBaseBytes <= 0 {
		cfg.levelBaseBytes = DefaultLevelBaseBytes
	}
	if cfg.levelGrowth <= 1 {
		cfg.levelGrowth = DefaultLevelGrowth
	}
	if cfg.maxLevel <= 0 {
		cfg.maxLevel = DefaultMaxLevel
	}
	e := &Engine{
		cfg:         cfg,
		algo:        algo,
		fs:          fs,
		walDurable:  cfg.WAL && (cfg.WALSync == WALSyncInterval || cfg.WALSync == WALSyncAlways),
		walAlways:   cfg.WAL && cfg.WALSync == WALSyncAlways,
		lastFlushed: make(map[string]int64),
		latest:      make(map[string]int64),
		flat:        cfg.Algorithm == "backward" && !cfg.PaperProfile,
	}
	e.newWorking()
	if e.pool = cfg.SharedPool; e.pool == nil {
		e.pool = NewSharedFlushPool(cfg.FlushWorkers)
	}
	opened := false
	defer func() {
		if opened {
			return
		}
		for _, fh := range e.files {
			fh.release()
		}
	}()
	if err := e.recover(); err != nil {
		return nil, err
	}
	// recover ranks legacy files first. Compact splits each at
	// partition boundaries and retires it; a crash mid-fold leaves the
	// root files in place, and the next Open folds them again.
	if len(e.files) > 0 && e.files[0].legacyParts != nil {
		if err := e.Compact(); err != nil {
			return nil, fmt.Errorf("engine: fold root-level files into partitions: %w", err)
		}
	}
	if cfg.WAL {
		if err := e.recoverWAL(); err != nil {
			return nil, err
		}
		// The recovery flush may already have rotated a fresh active
		// segment into place; only create one if it did not.
		if e.walSeg == nil {
			if err := e.newWALSegment(); err != nil {
				return nil, err
			}
		}
		if cfg.WALSync == WALSyncInterval {
			e.walTickStop = make(chan struct{})
			e.walTickDone = make(chan struct{})
			go e.walSyncLoop()
		}
	}
	opened = true
	return e, nil
}

// walSyncLoop fsyncs the active segment every WALSyncPeriod (the
// WALSyncInterval policy): a machine crash loses at most one period of
// acknowledged writes. It goes through Commit, so a tick overlapping
// always-style committers (or a segment mid-retirement) coalesces
// instead of double-syncing.
func (e *Engine) walSyncLoop() {
	defer close(e.walTickDone)
	ticker := time.NewTicker(e.cfg.WALSyncPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-e.walTickStop:
			return
		case <-ticker.C:
		}
		e.mu.Lock()
		seg := e.walSeg
		e.mu.Unlock()
		if seg == nil {
			continue
		}
		if err := seg.Commit(); err != nil {
			e.recordFlushErr(fmt.Errorf("engine: wal interval sync: %w", err))
		}
	}
}

// recoverWAL replays unflushed generations from leftover WAL segments
// into the working memtables, flushes them to chunk files, and removes
// the segments.
func (e *Engine) recoverWAL() error {
	segs, err := wal.Segments(e.cfg.Dir)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return nil
	}
	// Seed the segment counter past every leftover so the recovery
	// flush's fresh segment cannot collide with (and then delete) a
	// live file.
	for _, path := range segs {
		if seq, ok := wal.SeqFromName(filepath.Base(path)); ok && seq > e.walSeq {
			e.walSeq = seq
		}
	}
	replayedPoints := 0
	for _, path := range segs {
		err := wal.Replay(path, func(b wal.Batch) error {
			replayedPoints += len(b.Times)
			e.recoveredBatches++
			// Replay routes without counting: SeqPoints and
			// UnseqPoints count this engine's own inserts.
			e.mu.Lock()
			e.routeLocked(b.Sensor, b.Times, b.Values)
			e.mu.Unlock()
			return nil
		})
		if err != nil {
			return fmt.Errorf("engine: wal recovery: %w", err)
		}
	}
	if replayedPoints > 0 {
		e.Flush() // make the replayed data durable as chunk files
		if err := e.FlushError(); err != nil {
			return err
		}
	}
	for _, path := range segs {
		if err := e.fs.Remove(path); err != nil {
			return err
		}
	}
	if e.walDurable {
		if err := e.fs.SyncDir(e.cfg.Dir); err != nil {
			return err
		}
	}
	return nil
}

// newWALSegment starts a fresh active segment. Caller must ensure no
// concurrent inserts (Open, or under e.mu via rotateLocked).
func (e *Engine) newWALSegment() error {
	e.walSeq++
	seg, err := wal.CreateFS(e.fs, filepath.Join(e.cfg.Dir, wal.SegmentName(e.walSeq)),
		wal.Options{Durable: e.walDurable, Stats: &e.walStats})
	if err != nil {
		return err
	}
	e.walSeg = seg
	return nil
}

// routeLocked writes points into the working memtables through the
// separation policy — at or below the sensor's flushed watermark to
// the unsequence memtable, above it to the sequence one — and returns
// how many took each path. Caller holds e.mu.
func (e *Engine) routeLocked(sensor string, times []int64, values []float64) (seq, unseq int64) {
	watermark, hasWatermark := e.lastFlushed[sensor]
	for i, t := range times {
		if hasWatermark && t <= watermark {
			e.workingUn.Write(sensor, t, values[i])
			unseq++
		} else {
			e.working.Write(sensor, t, values[i])
			seq++
		}
	}
	if len(times) > 0 {
		raiseTo(e.latest, sensor, slices.Max(times))
	}
	return seq, unseq
}

// raiseTo sets m[sensor] to t unless it already holds a later time. A
// sensor not yet in m takes t whatever its sign: comparing against the
// map's zero default would leave out a sensor whose times are all
// negative.
func raiseTo(m map[string]int64, sensor string, t int64) {
	if cur, ok := m[sensor]; !ok || t > cur {
		m[sensor] = t
	}
}

// quarantineSuffix marks files recovery set aside instead of serving:
// unpublished flush temporaries and chunk files that failed
// validation. Quarantined files are renamed, not deleted — an operator
// (or a forensic test) can still inspect them — and recovery skips
// them on later Opens.
const quarantineSuffix = ".quarantine"

// quarantine renames path out of the live namespace and counts it.
func (e *Engine) quarantine(path string) error {
	if err := e.fs.Rename(path, path+quarantineSuffix); err != nil {
		return fmt.Errorf("engine: quarantine %s: %w", filepath.Base(path), err)
	}
	e.quarantined++
	return nil
}

// recoverChunkDir loads the chunk files of one directory. Leftover
// flush temporaries (crash before the publishing rename) and chunk
// files that fail header/footer/index validation (a root-level file or
// one Open upgrades: any read) are quarantined rather than served or
// fatal: a crash mid-publication must never leave the directory
// unopenable, and a torn file must never answer a query. Handles are
// returned in directory (lexicographic) order.
func (e *Engine) recoverChunkDir(dir string, part int64, level int) ([]*fileHandle, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// Temporaries go first: an upgrade below publishes through one.
	var names []string
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".gtsf.tmp") {
			// A flush, compaction or upgrade died between Create and the
			// publishing rename. The WAL still covers any unflushed
			// generation, and an upgrade's input is still in place; the
			// partial file is garbage.
			if err := e.quarantine(filepath.Join(dir, name)); err != nil {
				return nil, err
			}
			continue
		}
		if _, ok := chunkFileKind(name); ok {
			names = append(names, name)
		}
	}
	var out []*fileHandle
	for _, name := range names {
		unseq, _ := chunkFileKind(name)
		path := filepath.Join(dir, name)
		r, err := e.openStrict(path)
		var legacyParts map[int64]bool
		if err == nil && dir == e.cfg.Dir {
			// Open folds a root file into the partitions its points
			// occupy. Finding them reads every block, so a bad one
			// quarantines the file here instead of failing the fold.
			if legacyParts, err = e.pointPartitions(r); err != nil {
				r.Close()
			}
		}
		if err != nil {
			if errors.Is(err, tsfile.ErrCorrupt) {
				if qerr := e.quarantine(path); qerr != nil {
					return nil, qerr
				}
				continue
			}
			return nil, fmt.Errorf("engine: recover %s: %w", name, err)
		}
		fh := newFileHandle(path, r, unseq)
		fh.legacyParts = legacyParts
		fh.part = part
		fh.level = level
		// Keep new flush files numbered after the recovered ones.
		if _, err := fmt.Sscanf(strings.TrimPrefix(strings.TrimPrefix(name, "unseq-"), "seq-"), "%d.gtsf", &fh.seqNo); err == nil {
			if fh.seqNo > e.fileSeq {
				e.fileSeq = fh.seqNo
			}
		}
		out = append(out, fh)
	}
	return out, nil
}

// openStrict opens the chunk file at path, first upgrading it in place
// when an older writer left it not strict (tsfile.Upgrade): the
// upgraded file answers what the old one did. It replaces the old file
// under the same name, because the name is the file's newest-wins
// rank; the publishing rename is atomic, so a crash leaves one or the
// other. Reading the old file reads every block, so a bad one fails
// with tsfile.ErrCorrupt before anything is replaced.
func (e *Engine) openStrict(path string) (*tsfile.Reader, error) {
	r, err := tsfile.Open(path)
	if err != nil || r.Strict() {
		return r, err
	}
	err = e.writeChunkFile(path, true, func(w *tsfile.Writer) error { return tsfile.Upgrade(r, w) })
	r.Close()
	if err != nil {
		return nil, fmt.Errorf("engine: upgrade %s: %w", filepath.Base(path), err)
	}
	return tsfile.Open(path)
}

// chunkFileKind reports whether name is a published chunk file
// (seq-*.gtsf or unseq-*.gtsf) and whether it holds unsequence data.
func chunkFileKind(name string) (unseq, ok bool) {
	if filepath.Ext(name) != ".gtsf" {
		return false, false
	}
	unseq = strings.HasPrefix(name, "unseq-")
	return unseq, unseq || strings.HasPrefix(name, "seq-")
}

// IsStoreEntry reports whether a directory entry is part of an engine
// store, by the names recover reads: a chunk file or its flush
// temporary, a WAL segment, or a p<epoch>/ partition directory. The
// shard router uses it to refuse a root that holds an engine store of
// its own, whose data no shard would ever open.
func IsStoreEntry(name string, isDir bool) bool {
	if isDir {
		_, ok := parsePartitionDir(name)
		return ok
	}
	_, chunk := chunkFileKind(name)
	_, seg := wal.SeqFromName(name)
	return chunk || seg || strings.HasSuffix(name, ".gtsf.tmp")
}

// parsePartitionDir parses a time-partition directory name ("p<epoch>",
// epoch possibly negative).
func parsePartitionDir(name string) (int64, bool) {
	if len(name) < 2 || name[0] != 'p' {
		return 0, false
	}
	part, err := strconv.ParseInt(name[1:], 10, 64)
	return part, err == nil
}

// parseLevelDir parses a compaction-level directory name ("L<n>").
func parseLevelDir(name string) (int, bool) {
	if len(name) < 2 || name[0] != 'L' {
		return 0, false
	}
	level, err := strconv.Atoi(name[1:])
	if err != nil || level < 0 {
		return 0, false
	}
	return level, true
}

// recover loads pre-existing flushed files: legacy files a flat-layout
// store left in the root of the data directory (Open folds them into
// partitions before it returns), then the files under
// p<epoch>/L<level>/. The files list must end up ordered oldest
// generation first — that ordering is what gives newest-wins dedup its
// ranks — so legacy files come first (they predate every partitioned
// file, and keep their historical lexicographic order), and
// partitioned files follow sorted by partition, then level descending
// (higher levels hold older, already-compacted data), then sequence
// number (a same-level file with a higher sequence is newer).
func (e *Engine) recover() error {
	legacy, err := e.recoverChunkDir(e.cfg.Dir, 0, 0)
	if err != nil {
		return err
	}
	e.files = append(e.files, legacy...)

	entries, err := os.ReadDir(e.cfg.Dir)
	if err != nil {
		return err
	}
	var parts []*fileHandle
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		part, ok := parsePartitionDir(ent.Name())
		if !ok {
			continue
		}
		partDir := filepath.Join(e.cfg.Dir, ent.Name())
		levels, err := os.ReadDir(partDir)
		if err != nil {
			return err
		}
		for _, lent := range levels {
			if !lent.IsDir() {
				continue
			}
			level, ok := parseLevelDir(lent.Name())
			if !ok {
				continue
			}
			hs, err := e.recoverChunkDir(filepath.Join(partDir, lent.Name()), part, level)
			if err != nil {
				return err
			}
			parts = append(parts, hs...)
		}
	}
	sort.SliceStable(parts, func(a, b int) bool {
		x, y := parts[a], parts[b]
		if x.part != y.part {
			return x.part < y.part
		}
		if x.level != y.level {
			return x.level > y.level
		}
		return x.seqNo < y.seqNo
	})
	e.files = append(e.files, parts...)

	// A sensor's last chunk in a file holds its latest time there.
	for _, fh := range e.files {
		for sensor, ps := range fh.chunks {
			maxT := fh.index[ps[len(ps)-1]].MaxTime
			if !fh.unseq {
				raiseTo(e.lastFlushed, sensor, maxT)
			}
			raiseTo(e.latest, sensor, maxT)
		}
	}
	if e.quarantined > 0 && e.walDurable {
		if err := e.fs.SyncDir(e.cfg.Dir); err != nil {
			return err
		}
	}
	return nil
}

// Insert ingests one point.
func (e *Engine) Insert(sensor string, t int64, v float64) error {
	return e.InsertBatch(sensor, []int64{t}, []float64{v})
}

// InsertBatch ingests a batch of points for one sensor (the benchmark
// sends batches of 500, Section VI-A2). Points are routed through the
// separation policy individually.
func (e *Engine) InsertBatch(sensor string, times []int64, values []float64) error {
	if len(times) != len(values) {
		return fmt.Errorf("engine: batch shape mismatch: %d times, %d values", len(times), len(values))
	}
	// Refused before the WAL append: an acknowledged name the chunk
	// format cannot store would fail every later flush and, replayed
	// from the WAL, every reopen.
	if len(sensor) > tsfile.MaxSensorName {
		return fmt.Errorf("engine: sensor name is %d bytes, the limit is %d", len(sensor), tsfile.MaxSensorName)
	}
	e.lockContended(false)
	if e.closed {
		e.mu.Unlock()
		return errClosed
	}
	if e.cfg.WAL && e.walSeg == nil {
		// A previous segment rotation failed: accepting this write
		// would acknowledge data that no WAL covers. Reject instead —
		// the durability contract outranks availability here.
		e.mu.Unlock()
		return fmt.Errorf("engine: wal unavailable (segment rotation failed); write rejected")
	}
	walSeg := e.walSeg
	if walSeg != nil {
		if err := walSeg.Append(sensor, times, values); err != nil {
			e.mu.Unlock()
			return fmt.Errorf("engine: wal append: %w", err)
		}
	}
	seq, unseq := e.routeLocked(sensor, times, values)
	var unit *flushUnit
	if e.working.Points()+e.workingUn.Points() >= e.cfg.MemTableSize {
		unit = e.rotateLocked()
		if unit != nil {
			// Registered while still holding e.mu: Close marks the
			// engine closed under the same lock, so it can never miss
			// this drain when it waits on the group.
			e.flushWG.Add(1)
		}
	}
	e.mu.Unlock()

	e.seqPoints.Add(seq)
	e.unseqPoints.Add(unseq)

	var commitErr error
	if walSeg != nil && e.walAlways {
		// Acknowledge only after the record is on stable storage. The
		// fsync runs outside e.mu, so concurrent inserts group-commit:
		// they piggyback on one in-flight fsync instead of queueing one
		// each. If this batch's generation already flushed (the segment
		// was retired mid-commit), Commit reports success — the data is
		// durable as an fsynced chunk file.
		commitErr = walSeg.Commit()
	}

	// A registered drain must run even when the commit failed — the
	// unit is already in the flushing list and Close waits on it.
	if unit != nil {
		if e.cfg.SyncFlush {
			e.drain(unit)
			e.flushWG.Done()
		} else {
			go func() {
				defer e.flushWG.Done()
				e.drain(unit)
			}()
		}
	}
	if commitErr != nil {
		return fmt.Errorf("engine: wal commit: %w", commitErr)
	}
	return nil
}

// rotateLocked transitions the working memtables to flushing and
// installs fresh ones. Caller holds e.mu.
func (e *Engine) rotateLocked() *flushUnit {
	if e.working.Empty() && e.workingUn.Empty() {
		return nil
	}
	unit := &flushUnit{
		seq:     e.working,
		unseq:   e.workingUn,
		started: time.Now(),
		after:   e.lastUnit,
		done:    make(chan struct{}),
	}
	e.lastUnit = unit.done
	unit.seq.MarkFlushing()
	unit.unseq.MarkFlushing()
	if e.cfg.PaperProfile {
		unit.chunkLocks = make(map[*tvlist.TVList[float64]]*sync.Mutex)
		for _, mt := range []*memtable.MemTable{unit.seq, unit.unseq} {
			for _, s := range mt.Sensors() {
				unit.chunkLocks[mt.Chunk(s)] = &sync.Mutex{}
			}
		}
	}
	if e.cfg.WAL {
		unit.walSeg = e.walSeg
		if err := e.newWALSegment(); err != nil {
			// Writes continue unlogged; surface the problem like a
			// flush failure rather than dropping ingestion.
			e.walSeg = nil
			e.recordFlushErr(err)
		}
	}
	e.flushing = append(e.flushing, unit)
	// Advance the separation watermark now: anything older than what
	// is being flushed must go to the unsequence path from here on.
	for _, s := range unit.seq.Sensors() {
		raiseTo(e.lastFlushed, s, unit.seq.Chunk(s).MaxTime())
	}
	e.newWorking()
	return unit
}

// newWorking installs fresh working memtables. Their chunks are
// contiguous, except under the paper profile, which keeps IoTDB's
// List<Array> of tvlist.DefaultArrayLen.
func (e *Engine) newWorking() {
	arrayLen := 0
	if e.cfg.PaperProfile {
		arrayLen = tvlist.DefaultArrayLen
	}
	e.working = memtable.New(arrayLen)
	e.workingUn = memtable.New(arrayLen)
}

// recordFlushErr stores the first background failure for Query/Close
// to surface.
func (e *Engine) recordFlushErr(err error) {
	e.flushErr.CompareAndSwap(nil, &err)
}

// partitionOf returns the time-partition index of t (floor division,
// so negative timestamps land in negative partitions).
func (e *Engine) partitionOf(t int64) int64 {
	d := e.cfg.PartitionDuration
	p := t / d
	if t < 0 && t%d != 0 {
		p--
	}
	return p
}

// partitionBounds is partitionOf's inverse: partition p covers
// [p·d, (p+1)·d), clamped to the int64 range — the first and last
// partitions are cut short at MinInt64 and MaxInt64 rather than
// wrapping around.
func (e *Engine) partitionBounds(p int64) (lo, hi int64) {
	d := e.cfg.PartitionDuration
	lo, hi = math.MinInt64, math.MaxInt64
	if p >= math.MinInt64/d { // Go division truncates: this is ceil
		lo = p * d
	}
	if p < math.MaxInt64/d {
		hi = (p+1)*d - 1
	}
	return lo, hi
}

// writeChunkFile assembles one chunk file at path (creating its
// partition/level directory first) with the same atomic publication
// protocol flush has always used: build at a .tmp path,
// rename into place only once complete — and, under a durable sync
// policy, fsync the file before the rename and the directory after. A
// crash at any point leaves either no file or a .tmp that recovery
// quarantines, never a torn file at a servable name. When a directory
// fsync fails, a new file is removed again, but one that replaced
// another file at path (replace) is the only copy of its data and
// stays.
func (e *Engine) writeChunkFile(path string, replace bool, write func(w *tsfile.Writer) error) error {
	dir := filepath.Dir(path)
	if err := e.fs.MkdirAll(dir); err != nil {
		return fmt.Errorf("engine: flush mkdir %s: %w", dir, err)
	}
	tmp := path + ".tmp"
	w, err := tsfile.CreateFS(e.fs, tmp)
	if err != nil {
		return fmt.Errorf("engine: flush create %s: %w", tmp, err)
	}
	w.BlockPoints = e.cfg.blockPoints
	w.SyncOnClose = e.walDurable
	if err := write(w); err != nil {
		w.Close()
		e.fs.Remove(tmp)
		return fmt.Errorf("engine: flush write %s: %w", tmp, err)
	}
	if err := w.Close(); err != nil {
		e.fs.Remove(tmp)
		return fmt.Errorf("engine: flush close %s: %w", tmp, err)
	}
	if err := e.fs.Rename(tmp, path); err != nil {
		e.fs.Remove(tmp)
		return fmt.Errorf("engine: flush publish %s: %w", path, err)
	}
	if e.walDurable {
		// The partition/level directories may be new; their own
		// durability hangs off the root directory entry.
		for _, d := range []string{dir, e.cfg.Dir} {
			if err := e.fs.SyncDir(d); err != nil {
				if !replace {
					e.fs.Remove(path)
				}
				return fmt.Errorf("engine: flush publish sync %s: %w", d, err)
			}
		}
	}
	return nil
}

// drain sorts, encodes and writes one flushing unit to disk, then
// publishes the resulting files and retires the unit. Chunk sorting
// and encoding fan out under the engine's flush bound; the
// encoded chunks are appended to the file in deterministic (sorted
// sensor) order by this goroutine. A sensor's sorted points are split
// at time-partition boundaries and each partition gets its own level-0
// file. A failure mid-drain closes and removes everything the drain
// created — the unit stays in the flushing list (its data remains
// queryable from memory, and no partial .gtsf file is left for
// recover() to trip over on the next Open) — and records the error for
// Query/Close to surface.
func (e *Engine) drain(unit *flushUnit) {
	publishDone := sync.OnceFunc(func() { close(unit.done) })
	defer publishDone()
	var sortNanos, encodeNanos atomic.Int64
	var writeDur time.Duration
	var handles []*fileHandle
	fail := func(err error) {
		for _, h := range handles {
			h.release()
			e.fs.Remove(h.path)
		}
		e.recordFlushErr(err)
	}
	// One encoded chunk destined for one partition's file.
	type pchunk struct {
		part int64
		enc  *tsfile.EncodedChunk
	}
	for _, part := range []struct {
		mt    *memtable.MemTable
		unseq bool
		kind  string
	}{{unit.seq, false, "seq"}, {unit.unseq, true, "unseq"}} {
		if part.mt.Empty() {
			continue
		}
		sensors := part.mt.Sensors()
		encoded := make([][]pchunk, len(sensors))
		errs := make([]error, len(sensors))
		jobs := make([]func(), len(sensors))
		mt := part.mt
		for i := range sensors {
			i := i
			jobs[i] = func() {
				sensor := sensors[i]
				ts, vs := e.drainColumns(unit, mt.Chunk(sensor), &sortNanos)
				t1 := time.Now()
				defer func() { encodeNanos.Add(int64(time.Since(t1))) }()
				// Split the sorted run at partition boundaries (a binary
				// search per partition, not a division per point); each
				// segment becomes a chunk in its partition's L0 file.
				for start := 0; start < len(ts); {
					p := e.partitionOf(ts[start])
					_, hi := e.partitionBounds(p)
					end := start + sort.Search(len(ts)-start, func(j int) bool { return ts[start+j] > hi })
					enc, err := tsfile.EncodeChunkBlocks(sensor, ts[start:end], vs[start:end], e.cfg.blockPoints)
					if err != nil {
						errs[i] = err
						return
					}
					encoded[i] = append(encoded[i], pchunk{p, enc})
					start = end
				}
			}
		}
		e.pool.do(jobs)
		for _, err := range errs {
			if err != nil {
				fail(fmt.Errorf("engine: flush encode (%s): %w", part.kind, err))
				return
			}
		}

		// Group chunks by destination partition, preserving sensor
		// order within each file.
		perPart := map[int64][]*tsfile.EncodedChunk{}
		var partIDs []int64
		for _, chunks := range encoded {
			for _, pc := range chunks {
				if _, ok := perPart[pc.part]; !ok {
					partIDs = append(partIDs, pc.part)
				}
				perPart[pc.part] = append(perPart[pc.part], pc.enc)
			}
		}
		sort.Slice(partIDs, func(a, b int) bool { return partIDs[a] < partIDs[b] })

		if unit.after != nil {
			<-unit.after
		}
		t2 := time.Now()
		for _, p := range partIDs {
			e.mu.Lock()
			e.fileSeq++
			seq := e.fileSeq
			e.mu.Unlock()
			path := filepath.Join(e.cfg.Dir, fmt.Sprintf("p%d", p), "L0",
				fmt.Sprintf("%s-%06d.gtsf", part.kind, seq))
			err := e.writeChunkFile(path, false, func(w *tsfile.Writer) error {
				for _, enc := range perPart[p] {
					if err := w.AppendEncoded(enc); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				fail(err)
				return
			}
			r, err := tsfile.Open(path)
			if err != nil {
				e.fs.Remove(path)
				fail(fmt.Errorf("engine: flush reopen %s: %w", path, err))
				return
			}
			fh := newFileHandle(path, r, part.unseq)
			fh.part = p
			fh.seqNo = seq
			handles = append(handles, fh)
		}
		writeDur += time.Since(t2)
	}
	elapsed := time.Since(unit.started)

	e.mu.Lock()
	e.files = append(e.files, handles...)
	for i, u := range e.flushing {
		if u == unit {
			e.flushing = append(e.flushing[:i], e.flushing[i+1:]...)
			break
		}
	}
	e.flushCount++
	e.flushTotal += elapsed
	e.sortTotal += time.Duration(sortNanos.Load())
	e.encodeTotal += time.Duration(encodeNanos.Load())
	e.writeTotal += writeDur
	e.mu.Unlock()
	publishDone()

	// The generation is durable as chunk files: its WAL segment is no
	// longer needed.
	if unit.walSeg != nil {
		if err := unit.walSeg.Remove(); err != nil {
			e.recordFlushErr(err)
		}
	}

	// Leveled compaction rides the flush path: each published flush
	// may tip a partition's L0 file count or a level's size bound over
	// its threshold. Passes are bounded and serialized on compactMu,
	// and never hold the engine lock while merging. The paper profile
	// skips them: the reproduced figures time IoTDB's flush and query
	// path, and a merge inline on the SyncFlush writer would land in
	// their write latencies.
	if !e.cfg.PaperProfile {
		e.maybeCompact()
	}
}

// drainColumns returns one flushing chunk's records sorted, one per
// timestamp, adding the sort's time to sortNanos. A serving chunk is
// its resolved image folded to one run, so a flush sorts only what no
// query sorted before it, and a chunk written in order is encoded
// straight from its live array. A paper-profile chunk is sorted in
// place under its chunk lock.
func (e *Engine) drainColumns(unit *flushUnit, chunk *tvlist.TVList[float64], sortNanos *atomic.Int64) ([]int64, []float64) {
	if !e.cfg.PaperProfile {
		img, nanos := e.resolve(chunk.Capture(), true)
		sortNanos.Add(nanos)
		return img.Base.Times, img.Base.Values
	}
	mu := unit.lockChunk(chunk)
	mu.Lock()
	defer mu.Unlock()
	sortNanos.Add(e.sortChunk(chunk))
	return chunk.LastPerTime(math.MinInt64, math.MaxInt64)
}

// Flush forces the current working memtables to disk (synchronously).
func (e *Engine) Flush() {
	e.lockContended(false)
	if e.closed {
		e.mu.Unlock()
		return
	}
	unit := e.rotateLocked()
	if unit != nil {
		e.flushWG.Add(1)
	}
	e.mu.Unlock()
	if unit != nil {
		defer e.flushWG.Done()
		e.drain(unit)
	}
}

// Query returns every record of sensor with minT <= t <= maxT, in time
// order. When the same timestamp appears in multiple generations the
// newest write wins (unsequence over flushed, memtable over files).
//
// The engine lock is held only to snapshot (see gatherSources); the
// result is then appended run by run from the merge over the
// snapshotted sources (merge.go), which decodes file blocks lazily —
// one block per file is in memory at a time. Config.PaperProfile
// restores the paper's behavior of sorting the live working TVLists
// under the lock, blocking writers.
func (e *Engine) Query(sensor string, minT, maxT int64) ([]TV, error) {
	if err := e.FlushError(); err != nil {
		return nil, err
	}
	if minT > maxT {
		return nil, nil
	}
	qs, err := e.gatherSources(sensor, minT, maxT)
	if err != nil {
		return nil, err
	}
	defer qs.release()
	srcs := qs.sources(sensor, minT, maxT)
	m := newMerge(srcs, nil)
	var out []TV
	if n := pointsBound(srcs); n > 0 {
		out = make([]TV, 0, n)
	}
	for {
		ts, vs, _, err := m.next()
		if err != nil {
			return nil, err
		}
		if len(ts) == 0 {
			e.noteReads(srcs)
			return out, nil
		}
		for i, t := range ts {
			out = append(out, TV{t, vs[i]})
		}
	}
}

// LatestTime returns the newest ingested timestamp for sensor, used by
// the benchmark's "time > current - window" queries.
func (e *Engine) LatestTime(sensor string) (int64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.latest[sensor]
	return t, ok
}

// Stats returns a metrics snapshot. The engine lock is held while the
// flush counters, the averages derived from them, and the
// files/memtable numbers are read, so they describe the same instant.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	s := Stats{
		FlushCount:          e.flushCount,
		Files:               len(e.files),
		MemTablePoints:      e.working.Points() + e.workingUn.Points(),
		FlushWorkers:        e.pool.Size(),
		QuarantinedFiles:    e.quarantined,
		RecoveredWALBatches: e.recoveredBatches,
	}
	parts := map[int64]struct{}{}
	for _, fh := range e.files {
		parts[fh.part] = struct{}{}
	}
	s.PartitionsActive = len(parts)
	if e.flushCount > 0 {
		n := float64(e.flushCount)
		s.AvgFlushMillis = float64(e.flushTotal.Microseconds()) / 1000 / n
		s.AvgSortMillis = float64(e.sortTotal.Microseconds()) / 1000 / n
		s.AvgEncodeMillis = float64(e.encodeTotal.Microseconds()) / 1000 / n
		s.AvgWriteMillis = float64(e.writeTotal.Microseconds()) / 1000 / n
	}
	e.mu.Unlock()

	s.SeqPoints = e.seqPoints.Load()
	s.UnseqPoints = e.unseqPoints.Load()
	s.SortsSkipped = e.sortsSkipped.Load()
	s.FlatSorts = e.flatSorts.Load()
	s.InterfaceSorts = e.ifaceSorts.Load()
	s.FlatSortMillis = float64(e.flatSortNanos.Load()) / 1e6
	s.InterfaceSortMillis = float64(e.ifaceSortNanos.Load()) / 1e6
	s.QuerySortedPoints = e.querySorted.Load()
	s.QueriesBlocked = e.queriesBlocked.Load()
	s.LockWaits = e.lockHist.n.Load()
	if s.LockWaits > 0 {
		s.AvgLockWaitMicros = float64(e.lockHist.total.Load()) / 1e3 / float64(s.LockWaits)
		s.MaxLockWaitMicros = float64(e.lockHist.max.Load()) / 1e3
		s.P99LockWaitMicros = e.lockHist.percentileMicros(99)
	}
	s.WALSyncs = e.walStats.Syncs.Load()
	s.WALCommits = e.walStats.Commits.Load()
	s.ChunksFromStats = e.chunksFromStats.Load()
	s.ChunksDecoded = e.chunksDecoded.Load()
	s.PointsSkipped = e.pointsSkipped.Load()
	s.BytesRead = e.bytesRead.Load()
	s.BlocksDecoded = e.blocksDecoded.Load()
	s.BlocksSkipped = e.blocksSkipped.Load()
	s.BlocksFromStats = e.blocksFromStats.Load()
	s.CompactionPasses = e.compactionPasses.Load()
	s.CompactionBytesRead = e.compactionBytesRead.Load()
	s.MaxCompactionPassBytes = e.maxCompactionPass.Load()
	s.PartitionsDropped = e.partitionsDropped.Load()
	return s
}

// WaitFlushes blocks until every in-flight background flush has
// finished (it does not force a new one; see Flush for that).
func (e *Engine) WaitFlushes() { e.flushWG.Wait() }

// FlushError returns the first background flush failure, if any.
func (e *Engine) FlushError() error {
	if err := e.flushErr.Load(); err != nil {
		return *err
	}
	return nil
}

// Close flushes remaining data, waits for in-flight flushes, and
// releases the engine's file references (queries still reading a file
// keep it open until they finish).
//
// Close is safe to call concurrently: exactly one caller performs the
// shutdown, and every other caller blocks until it has finished (and
// returns the same result) rather than returning while flushes are
// still draining.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() { e.closeErr = e.close() })
	return e.closeErr
}

func (e *Engine) close() error {
	e.Flush()
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	if e.walTickStop != nil {
		close(e.walTickStop)
		<-e.walTickDone
	}
	// closed is set: no new drain can be registered, so the wait is
	// complete.
	e.flushWG.Wait()

	e.mu.Lock()
	firstErr := e.FlushError()
	if e.walSeg != nil {
		// The active segment may only be removed when it is provably
		// empty — i.e. Flush above rotated every batch into a unit that
		// drained successfully. If a final flush failed, the segment
		// still guards un-persisted batches: keep it on disk so the
		// next Open replays it, and surface the retention.
		if e.walSeg.Empty() {
			if err := e.walSeg.Remove(); err != nil && firstErr == nil {
				firstErr = err
			}
		} else {
			closeErr := e.walSeg.Close()
			if firstErr == nil {
				if closeErr != nil {
					firstErr = closeErr
				} else {
					firstErr = fmt.Errorf("engine: close: %d un-flushed wal batches retained in %s for replay", e.walSeg.Batches(), e.walSeg.Path())
				}
			}
		}
		e.walSeg = nil
	}
	for _, fh := range e.files {
		if err := fh.release(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	e.files = nil
	e.mu.Unlock()
	return firstErr
}

// sortableGuard: the engine relies on TVList implementing
// core.Sortable; keep the dependency explicit.
var _ core.Sortable = (*tvlist.TVList[float64])(nil)
