// Package tsfile implements the compact columnar chunk file this
// repository's storage engine flushes memtables into — a simplified
// stand-in for Apache IoTDB's TsFile that preserves the properties the
// paper's experiments depend on: chunks must be written in time order
// (which is why flushing sorts), chunk metadata carries time bounds
// for query pruning, and flushing pays real encoding + I/O cost.
//
// Layout:
//
//	magic "GTSF0001"
//	chunk*   — per (sensor) chunk:
//	             uvarint nameLen, name bytes
//	             block*, where each block is an independently decodable
//	               [TS2Diff timestamps | Gorilla values | uint32 CRC-32
//	               (IEEE) of the block] unit covering a bounded point
//	               range — IoTDB's page, the TSM block
//	index    — uvarint entryCount, then per chunk:
//	             uvarint nameLen, name, uvarint offset, uvarint count,
//	             varint minTime, varint maxTime,
//	             byte flags, [5 × float64 value statistics when flags&1],
//	             uvarint blockCount, then per block:
//	               uvarint offsetDelta (from the chunk offset),
//	               uvarint size, uvarint count, varint minTime,
//	               varint maxTime, byte flags, [5 × float64 statistics
//	               when flags&1]
//	footer   — 8-byte little-endian index offset, magic "GTSFEND3"
//
// The block index is what lets narrow-range reads seek to just the
// blocks overlapping their time window instead of decoding whole
// chunks, and per-block statistics extend aggregation pushdown from
// chunk granularity to block granularity.
//
// The footer magic doubles as the index format version. Files ending
// in "GTSFEND2", written before the block index existed, stay readable:
// each of their chunks is one unit [name header | timestamps | values |
// CRC-32 of all three] with no block entries, and Open presents it as a
// chunk of one block whose CRC starts at the chunk offset. Every chunk
// a Reader returns therefore has at least one block.
//
// A file is strict (Reader.Strict) when it is v3, every chunk and block
// carries statistics, and its times strictly increase across every
// block edge and every same-sensor chunk edge — what Writer produces.
// Files written before the writer refused equal timestamps are not;
// Upgrade rewrites one into a strict file with the answers it always
// gave, and the engine does so when it opens a store.
//
// Sorted regular timestamps compress to ~1–2 bytes each under TS2Diff
// (IoTDB's TS_2DIFF family) and slowly varying values to a few bits
// under Gorilla, IoTDB's float codec.
package tsfile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"

	"repro/internal/encoding"
	"repro/internal/faultfs"
)

const (
	magicHead   = "GTSF0001"
	magicTailV2 = "GTSFEND2" // legacy: single-unit chunks, no block index
	magicTailV3 = "GTSFEND3" // blocked chunks with a per-block index
)

// tailLen is the footer size: 8-byte index offset + 8-byte magic,
// identical across index versions.
const tailLen = int64(8 + len(magicTailV3))

// DefaultBlockPoints is the target points per block when
// Writer.BlockPoints (or EncodeChunkBlocks' blockPoints) is <= 0. Small
// enough that a narrow-range query decodes a fraction of a big chunk,
// large enough that the per-block CRC + index entry stays under ~1%
// overhead.
const DefaultBlockPoints = 4096

// ErrCorrupt is wrapped by every integrity failure the reader detects.
var ErrCorrupt = errors.New("tsfile: corrupt file")

// MaxSensorName is the longest sensor name, in bytes, a chunk file
// stores. It bounds the format: the reader rejects longer index names
// and chunk headers as corrupt, so a name past it is refused at the
// front doors (engine inserts, line protocol) before it is acknowledged
// rather than at flush, where it would fail every later flush.
const MaxSensorName = 120

// ValueStats summarizes a value column, written into the index at
// flush/compaction time so windowed aggregations can answer from
// metadata without decoding (count lives in ChunkMeta.Count /
// BlockMeta.Count). First and Last are the values at the earliest and
// latest timestamps.
type ValueStats struct {
	Min   float64
	Max   float64
	Sum   float64
	First float64
	Last  float64
}

// BlockMeta describes one block of a chunk: an independently CRC'd,
// independently decodable run of the chunk's points covering
// [MinTime, MaxTime]. Offset is absolute in the file; Size includes
// the block's trailing CRC. Stats is nil only in files written before
// timestamps had to strictly increase, for a block holding duplicate
// timestamps (statistics over the raw points would disagree with the
// deduplicated stream queries return).
type BlockMeta struct {
	Offset  int64
	Size    int64
	Count   int
	MinTime int64
	MaxTime int64
	Stats   *ValueStats
}

// ChunkMeta describes one chunk in a file's index. Stats is nil, as for
// BlockMeta, only for a chunk of such an older file holding duplicate
// timestamps. Size is the chunk's byte extent in the file (derived
// from the neighboring index entries at load time, not stored). Blocks
// holds at least one block, in nondecreasing time order; their point
// counts sum to Count.
type ChunkMeta struct {
	Sensor  string
	Offset  int64
	Size    int64
	Count   int
	MinTime int64
	MaxTime int64
	Stats   *ValueStats
	Blocks  []BlockMeta
}

// Writer writes a tsfile. Chunks append sequentially; Close writes
// the index and footer. A Writer is not safe for concurrent use.
type Writer struct {
	f       faultfs.File
	w       *bufio.Writer
	off     int64
	index   []ChunkMeta
	lastMax map[string]int64 // per-sensor max time of the last appended chunk
	closed  bool
	cur     *streamChunk // in-progress BeginChunk/AppendBlock chunk
	// BlockPoints is the target points per block WriteChunk splits a
	// chunk into; <= 0 means DefaultBlockPoints.
	BlockPoints int
	// SyncOnClose forces an fsync in Close. The storage engine leaves
	// it off unless a WAL sync policy is active — like IoTDB's default
	// flush, durability is the OS page cache's problem, and a per-file
	// fsync would swamp the flush-time metric the experiments measure.
	SyncOnClose bool
}

// Create opens path for writing on the real filesystem, truncating any
// existing file.
func Create(path string) (*Writer, error) {
	return CreateFS(faultfs.OS, path)
}

// CreateFS opens path for writing through fs, so crash tests can
// inject faults into the chunk-file write path.
func CreateFS(fs faultfs.FS, path string) (*Writer, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, w: bufio.NewWriterSize(f, 1<<16), lastMax: make(map[string]int64)}
	if _, err := w.w.WriteString(magicHead); err != nil {
		f.Close()
		return nil, err
	}
	w.off = int64(len(magicHead))
	return w, nil
}

// WriteChunk appends one chunk. times must be strictly increasing —
// the invariant a flush establishes by sorting and keeping the last
// record per timestamp — and len(times) must equal len(values) and be
// > 0. The chunk is split into blocks of at most BlockPoints points.
func (w *Writer) WriteChunk(sensor string, times []int64, values []float64) error {
	enc, err := EncodeChunkBlocks(sensor, times, values, w.BlockPoints)
	if err != nil {
		return err
	}
	return w.AppendEncoded(enc)
}

// EncodedChunk is a chunk encoded away from the Writer — validation,
// column encoding and the CRCs all happen here, so several chunks can
// be prepared concurrently on different goroutines and then appended
// to the file sequentially in a chosen order. Meta.Offset and the
// block offsets are filled in by AppendEncoded.
type EncodedChunk struct {
	Meta    ChunkMeta
	payload []byte
}

// EncodeChunkBlocks validates and encodes one chunk, splitting it into
// independently decodable blocks of at most blockPoints points each.
// blockPoints <= 0 means DefaultBlockPoints. Safe to call from
// multiple goroutines.
func EncodeChunkBlocks(sensor string, times []int64, values []float64, blockPoints int) (*EncodedChunk, error) {
	if blockPoints <= 0 {
		blockPoints = DefaultBlockPoints
	}
	if err := validateChunk(sensor, times, values); err != nil {
		return nil, err
	}
	payload := make([]byte, 0, len(sensor)+16+len(times)*3+len(values)*8)
	payload = binary.AppendUvarint(payload, uint64(len(sensor)))
	payload = append(payload, sensor...)
	var blocks []BlockMeta
	stats := newStats(values[0])
	for start := 0; start < len(times); start += blockPoints {
		end := min(start+blockPoints, len(times))
		var b BlockMeta
		payload, b = appendBlock(payload, times[start:end], values[start:end], stats)
		blocks = append(blocks, b) // Offset relative until AppendEncoded rebases
	}
	return &EncodedChunk{
		Meta: ChunkMeta{
			Sensor:  sensor,
			Size:    int64(len(payload)),
			Count:   len(times),
			MinTime: times[0],
			MaxTime: times[len(times)-1],
			Stats:   stats,
			Blocks:  blocks,
		},
		payload: payload,
	}, nil
}

// appendBlock appends one block of a validated column pair to dst —
// TS2Diff times, Gorilla values, the CRC-32 of both — folds the values
// into the chunk's statistics, and returns the block's index entry,
// its Offset where the block starts in dst. WriteChunk and the
// streaming AppendBlock both encode every block here, so the same cuts
// give the same bytes.
func appendBlock(dst []byte, times []int64, values []float64, chunk *ValueStats) ([]byte, BlockMeta) {
	start := len(dst)
	dst = encoding.AppendTS2Diff(dst, times)
	dst = encoding.AppendGorilla(dst, values)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
	chunk.fold(values)
	stats := newStats(values[0])
	stats.fold(values)
	return dst, BlockMeta{
		Offset:  int64(start),
		Size:    int64(len(dst) - start),
		Count:   len(times),
		MinTime: times[0],
		MaxTime: times[len(times)-1],
		Stats:   stats,
	}
}

// validateChunk checks the shared chunk invariants: a nonempty column
// pair of equal length whose timestamps strictly increase.
func validateChunk(sensor string, times []int64, values []float64) error {
	if len(times) == 0 || len(times) != len(values) {
		return fmt.Errorf("tsfile: bad chunk shape: %d times, %d values", len(times), len(values))
	}
	if len(sensor) > MaxSensorName {
		return fmt.Errorf("tsfile: sensor name too long (%d bytes)", len(sensor))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return fmt.Errorf("tsfile: chunk for %q not strictly increasing at %d", sensor, i)
		}
	}
	return nil
}

// newStats starts the statistics of a column whose first value is
// first; fold then adds the column's values, first included, in order.
func newStats(first float64) *ValueStats {
	return &ValueStats{Min: first, Max: first, First: first}
}

// fold adds a nonempty run of values, in column order, to s.
func (s *ValueStats) fold(values []float64) {
	for _, v := range values {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		s.Sum += v
	}
	s.Last = values[len(values)-1]
}

// AppendEncoded appends a chunk prepared by EncodeChunkBlocks. Like
// the rest of Writer it is not safe for concurrent use — parallel
// encoders must funnel their results through one appender.
func (w *Writer) AppendEncoded(enc *EncodedChunk) error {
	if w.closed {
		return errors.New("tsfile: write after Close")
	}
	if w.cur != nil {
		return errors.New("tsfile: AppendEncoded during an open streaming chunk")
	}
	meta := enc.Meta
	// Same-sensor chunks must land in strictly increasing time order,
	// like the records inside a chunk: the engine's merge hands their
	// runs out without re-checking across chunk edges.
	if last, ok := w.lastMax[meta.Sensor]; ok && meta.MinTime <= last {
		return fmt.Errorf("tsfile: chunk for %q out of time order: min %d not after previous max %d",
			meta.Sensor, meta.MinTime, last)
	}
	w.lastMax[meta.Sensor] = meta.MaxTime
	meta.Offset = w.off
	// Rebase the block offsets (relative to the payload start) to
	// absolute file offsets, on a copy — the EncodedChunk may be
	// retained by its producer.
	blocks := make([]BlockMeta, len(meta.Blocks))
	copy(blocks, meta.Blocks)
	for i := range blocks {
		blocks[i].Offset += w.off
	}
	meta.Blocks = blocks
	if _, err := w.w.Write(enc.payload); err != nil {
		return err
	}
	w.off += int64(len(enc.payload))
	w.index = append(w.index, meta)
	return nil
}

// streamChunk is the state of an in-progress streaming chunk.
type streamChunk struct {
	sensor string
	off    int64 // chunk start (the name-length byte)
	blocks []BlockMeta
	count  int
	stats  *ValueStats
}

// BeginChunk starts a streaming chunk for sensor: blocks are appended
// one at a time with AppendBlock and the index entry is completed by
// EndChunk, so a compaction can write an arbitrarily large chunk while
// holding only one block of points in memory. The caller sizes the
// blocks; BlockPoints does not apply.
func (w *Writer) BeginChunk(sensor string) error {
	if w.closed {
		return errors.New("tsfile: write after Close")
	}
	if w.cur != nil {
		return fmt.Errorf("tsfile: BeginChunk(%q) with chunk for %q still open", sensor, w.cur.sensor)
	}
	if len(sensor) > MaxSensorName {
		return fmt.Errorf("tsfile: sensor name too long (%d bytes)", len(sensor))
	}
	hdr := binary.AppendUvarint(nil, uint64(len(sensor)))
	hdr = append(hdr, sensor...)
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	w.cur = &streamChunk{sensor: sensor, off: w.off}
	w.off += int64(len(hdr))
	return nil
}

// AppendBlock appends one block to the streaming chunk. times must be
// strictly increasing and start after the previous block's max time —
// for a chunk's first block, after the max time of the sensor's
// previous chunk in the file.
func (w *Writer) AppendBlock(times []int64, values []float64) error {
	c := w.cur
	if c == nil {
		return errors.New("tsfile: AppendBlock without BeginChunk")
	}
	if err := validateChunk(c.sensor, times, values); err != nil {
		return err
	}
	if len(c.blocks) == 0 {
		if last, ok := w.lastMax[c.sensor]; ok && times[0] <= last {
			return fmt.Errorf("tsfile: chunk for %q out of time order: min %d not after previous max %d",
				c.sensor, times[0], last)
		}
	} else if prev := c.blocks[len(c.blocks)-1]; times[0] <= prev.MaxTime {
		return fmt.Errorf("tsfile: block for %q out of time order: min %d not after previous max %d",
			c.sensor, times[0], prev.MaxTime)
	}
	if c.stats == nil {
		c.stats = newStats(values[0])
	}
	payload, b := appendBlock(nil, times, values, c.stats)
	if _, err := w.w.Write(payload); err != nil {
		return err
	}
	b.Offset = w.off
	c.blocks = append(c.blocks, b)
	w.off += int64(len(payload))
	c.count += len(times)
	return nil
}

// EndChunk completes the streaming chunk and records its index entry.
func (w *Writer) EndChunk() error {
	c := w.cur
	if c == nil {
		return errors.New("tsfile: EndChunk without BeginChunk")
	}
	if len(c.blocks) == 0 {
		return fmt.Errorf("tsfile: empty streaming chunk for %q", c.sensor)
	}
	w.cur = nil
	meta := ChunkMeta{
		Sensor:  c.sensor,
		Offset:  c.off,
		Size:    w.off - c.off,
		Count:   c.count,
		MinTime: c.blocks[0].MinTime,
		MaxTime: c.blocks[len(c.blocks)-1].MaxTime,
		Stats:   c.stats,
		Blocks:  c.blocks,
	}
	w.lastMax[meta.Sensor] = meta.MaxTime
	w.index = append(w.index, meta)
	return nil
}

// appendStatsEntry serializes the flags byte + optional statistics.
func appendStatsEntry(idx []byte, s *ValueStats) []byte {
	if s == nil {
		return append(idx, 0)
	}
	idx = append(idx, 1)
	for _, v := range [5]float64{s.Min, s.Max, s.Sum, s.First, s.Last} {
		idx = binary.LittleEndian.AppendUint64(idx, math.Float64bits(v))
	}
	return idx
}

// Close writes the index and footer, syncs the file when SyncOnClose
// is set, and closes it. The file is closed whatever fails first —
// including a streaming chunk left open, which leaves the file without
// an index — and that first error is returned.
func (w *Writer) Close() (err error) {
	if w.closed {
		return nil
	}
	w.closed = true
	defer func() {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}()
	if w.cur != nil {
		return fmt.Errorf("tsfile: Close with streaming chunk for %q still open", w.cur.sensor)
	}
	indexOff := w.off
	idx := make([]byte, 0, 64*len(w.index))
	idx = binary.AppendUvarint(idx, uint64(len(w.index)))
	for _, m := range w.index {
		idx = binary.AppendUvarint(idx, uint64(len(m.Sensor)))
		idx = append(idx, m.Sensor...)
		idx = binary.AppendUvarint(idx, uint64(m.Offset))
		idx = binary.AppendUvarint(idx, uint64(m.Count))
		idx = binary.AppendVarint(idx, m.MinTime)
		idx = binary.AppendVarint(idx, m.MaxTime)
		idx = appendStatsEntry(idx, m.Stats)
		idx = binary.AppendUvarint(idx, uint64(len(m.Blocks)))
		for _, b := range m.Blocks {
			idx = binary.AppendUvarint(idx, uint64(b.Offset-m.Offset))
			idx = binary.AppendUvarint(idx, uint64(b.Size))
			idx = binary.AppendUvarint(idx, uint64(b.Count))
			idx = binary.AppendVarint(idx, b.MinTime)
			idx = binary.AppendVarint(idx, b.MaxTime)
			idx = appendStatsEntry(idx, b.Stats)
		}
	}
	if _, err := w.w.Write(idx); err != nil {
		return err
	}
	var foot [8]byte
	binary.LittleEndian.PutUint64(foot[:], uint64(indexOff))
	if _, err := w.w.Write(foot[:]); err != nil {
		return err
	}
	if _, err := w.w.WriteString(magicTailV3); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.SyncOnClose {
		return w.f.Sync()
	}
	return nil
}

// Index returns the chunk metadata written so far; after Close it is
// the complete file index (callers cache it to avoid re-reading).
func (w *Writer) Index() []ChunkMeta {
	out := make([]ChunkMeta, len(w.index))
	copy(out, w.index)
	return out
}

// Reader reads a tsfile. It is safe for concurrent ReadChunk and
// ReadBlockInto calls.
type Reader struct {
	f       *os.File
	index   []ChunkMeta
	version int  // index format version: 2 or 3
	strict  bool // see the package comment
}

// Open opens a tsfile and loads its index.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &Reader{f: f}
	if err := r.loadIndex(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// Strict reports whether the file holds what Writer writes: v3,
// statistics on every chunk and block, and times strictly increasing
// across every block and same-sensor chunk edge. Inside the blocks of a
// strict file, reads check that the times strictly increase.
func (r *Reader) Strict() bool { return r.strict }

// readStatsEntry parses a flags byte + optional statistics.
func readStatsEntry(br *sliceReader) (*ValueStats, error) {
	flags, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if flags&1 == 0 {
		return nil, nil
	}
	raw, err := br.take(5 * 8)
	if err != nil {
		return nil, err
	}
	return &ValueStats{
		Min:   math.Float64frombits(binary.LittleEndian.Uint64(raw[0:])),
		Max:   math.Float64frombits(binary.LittleEndian.Uint64(raw[8:])),
		Sum:   math.Float64frombits(binary.LittleEndian.Uint64(raw[16:])),
		First: math.Float64frombits(binary.LittleEndian.Uint64(raw[24:])),
		Last:  math.Float64frombits(binary.LittleEndian.Uint64(raw[32:])),
	}, nil
}

func (r *Reader) loadIndex() error {
	st, err := r.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < int64(len(magicHead))+tailLen {
		return fmt.Errorf("%w: too small (%d bytes)", ErrCorrupt, st.Size())
	}
	head := make([]byte, len(magicHead))
	if _, err := r.f.ReadAt(head, 0); err != nil {
		return err
	}
	if string(head) != magicHead {
		return fmt.Errorf("%w: bad head magic %q", ErrCorrupt, head)
	}
	tail := make([]byte, tailLen)
	if _, err := r.f.ReadAt(tail, st.Size()-tailLen); err != nil {
		return err
	}
	switch string(tail[8:]) {
	case magicTailV2:
		r.version = 2
	case magicTailV3:
		r.version, r.strict = 3, true
	default:
		return fmt.Errorf("%w: bad tail magic %q", ErrCorrupt, tail[8:])
	}
	indexOff := int64(binary.LittleEndian.Uint64(tail[:8]))
	if indexOff < int64(len(magicHead)) || indexOff >= st.Size()-tailLen {
		return fmt.Errorf("%w: index offset %d out of range", ErrCorrupt, indexOff)
	}
	idx := make([]byte, st.Size()-tailLen-indexOff)
	if _, err := r.f.ReadAt(idx, indexOff); err != nil {
		return err
	}
	br := &sliceReader{b: idx}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("%w: index count: %v", ErrCorrupt, err)
	}
	// Every field below comes from disk; bound-check each one so a
	// corrupt or hostile index can neither panic the reader nor make
	// ReadChunk size a buffer from a fabricated Count.
	lastMax := make(map[string]int64)
	prevOffset := int64(0)
	for i := uint64(0); i < count; i++ {
		var m ChunkMeta
		nameLen, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("%w: index entry %d: %v", ErrCorrupt, i, err)
		}
		if nameLen > MaxSensorName {
			return fmt.Errorf("%w: index entry %d: sensor name %d bytes", ErrCorrupt, i, nameLen)
		}
		name, err := br.take(int(nameLen))
		if err != nil {
			return fmt.Errorf("%w: index entry %d name: %v", ErrCorrupt, i, err)
		}
		m.Sensor = string(name)
		off, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("%w: index entry %d offset: %v", ErrCorrupt, i, err)
		}
		m.Offset = int64(off)
		if off > uint64(indexOff) || m.Offset < int64(len(magicHead)) {
			return fmt.Errorf("%w: index entry %d: offset %d outside chunk region [%d, %d)",
				ErrCorrupt, i, m.Offset, len(magicHead), indexOff)
		}
		// Entries appear in file order: the writer appends chunks
		// sequentially, so offsets strictly ascend. This is also what
		// lets each chunk's byte extent be derived from its neighbor.
		if m.Offset <= prevOffset && i > 0 {
			return fmt.Errorf("%w: index entry %d: offset %d not ascending (previous %d)",
				ErrCorrupt, i, m.Offset, prevOffset)
		}
		prevOffset = m.Offset
		cnt, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("%w: index entry %d count: %v", ErrCorrupt, i, err)
		}
		// Each record costs at least one bit on disk, so a chunk in the
		// region [Offset, indexOff) can hold at most 8 points per byte.
		if cnt == 0 || cnt > 8*uint64(indexOff-m.Offset) {
			return fmt.Errorf("%w: index entry %d: count %d impossible for %d-byte region",
				ErrCorrupt, i, cnt, indexOff-m.Offset)
		}
		m.Count = int(cnt)
		if m.MinTime, err = binary.ReadVarint(br); err != nil {
			return fmt.Errorf("%w: index entry %d mintime: %v", ErrCorrupt, i, err)
		}
		if m.MaxTime, err = binary.ReadVarint(br); err != nil {
			return fmt.Errorf("%w: index entry %d maxtime: %v", ErrCorrupt, i, err)
		}
		if m.MinTime > m.MaxTime {
			return fmt.Errorf("%w: index entry %d: min time %d > max time %d",
				ErrCorrupt, i, m.MinTime, m.MaxTime)
		}
		// A sensor's chunks are indexed in time order. The writer
		// refuses a chunk opening on its predecessor's last time, but
		// files written before it did may hold one: such a file opens,
		// not strict.
		if last, ok := lastMax[m.Sensor]; ok && m.MinTime <= last {
			if m.MinTime < last {
				return fmt.Errorf("%w: index entry %d: chunks for %q out of time order (%d after %d)",
					ErrCorrupt, i, m.Sensor, m.MinTime, last)
			}
			r.strict = false
		}
		lastMax[m.Sensor] = m.MaxTime
		if m.Stats, err = readStatsEntry(br); err != nil {
			return fmt.Errorf("%w: index entry %d stats: %v", ErrCorrupt, i, err)
		}
		if m.Stats == nil {
			r.strict = false
		}
		if r.version == 3 {
			if err := r.loadBlockIndex(br, &m, i, indexOff); err != nil {
				return err
			}
		}
		r.index = append(r.index, m)
	}
	// Offsets ascend, so each chunk's extent ends where the next chunk
	// (or the index) starts.
	for i := range r.index {
		m := &r.index[i]
		end := indexOff
		if i+1 < len(r.index) {
			end = r.index[i+1].Offset
		}
		m.Size = end - m.Offset
		if r.version == 2 {
			if err := legacyBlock(m, i); err != nil {
				return err
			}
		}
		if last := &m.Blocks[len(m.Blocks)-1]; last.Offset+last.Size > end {
			return fmt.Errorf("%w: index entry %d: block region past chunk end %d", ErrCorrupt, i, end)
		}
	}
	return nil
}

// legacyBlock presents a v2 chunk — one unit of timestamps, values and
// a CRC after the name header — as a chunk of one block spanning the
// rest of its extent. The name header's length follows from the
// indexed name.
func legacyBlock(m *ChunkMeta, i int) error {
	var hdr [binary.MaxVarintLen64]byte
	hdrLen := int64(binary.PutUvarint(hdr[:], uint64(len(m.Sensor))) + len(m.Sensor))
	size := m.Size - hdrLen
	if size < 5 || uint64(m.Count) > 8*uint64(size) {
		return fmt.Errorf("%w: index entry %d: %d points in a %d-byte chunk", ErrCorrupt, i, m.Count, m.Size)
	}
	m.Blocks = []BlockMeta{{
		Offset:  m.Offset + hdrLen,
		Size:    size,
		Count:   m.Count,
		MinTime: m.MinTime,
		MaxTime: m.MaxTime,
		Stats:   m.Stats,
	}}
	return nil
}

// loadBlockIndex parses and validates one v3 entry's block list.
func (r *Reader) loadBlockIndex(br *sliceReader, m *ChunkMeta, i uint64, indexOff int64) error {
	blockCount, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("%w: index entry %d block count: %v", ErrCorrupt, i, err)
	}
	// Every v3 chunk is blocked, and every block holds at least one
	// point.
	if blockCount == 0 || blockCount > uint64(m.Count) {
		return fmt.Errorf("%w: index entry %d: %d blocks for %d points", ErrCorrupt, i, blockCount, m.Count)
	}
	blocks := make([]BlockMeta, 0, blockCount)
	sum := 0
	prevEnd := m.Offset
	for j := uint64(0); j < blockCount; j++ {
		var b BlockMeta
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("%w: index entry %d block %d offset: %v", ErrCorrupt, i, j, err)
		}
		b.Offset = m.Offset + int64(delta)
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("%w: index entry %d block %d size: %v", ErrCorrupt, i, j, err)
		}
		b.Size = int64(size)
		// A block needs the 4-byte CRC plus at least one payload byte,
		// must start after its chunk's name header (and past the
		// previous block), and must end inside the chunk region.
		if b.Size < 5 || b.Offset <= m.Offset || b.Offset < prevEnd ||
			b.Offset > indexOff || b.Size > indexOff-b.Offset {
			return fmt.Errorf("%w: index entry %d block %d: bad extent [%d, +%d)",
				ErrCorrupt, i, j, b.Offset, b.Size)
		}
		prevEnd = b.Offset + b.Size
		cnt, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("%w: index entry %d block %d count: %v", ErrCorrupt, i, j, err)
		}
		if cnt == 0 || cnt > 8*uint64(b.Size) {
			return fmt.Errorf("%w: index entry %d block %d: count %d impossible for %d bytes",
				ErrCorrupt, i, j, cnt, b.Size)
		}
		b.Count = int(cnt)
		if b.MinTime, err = binary.ReadVarint(br); err != nil {
			return fmt.Errorf("%w: index entry %d block %d mintime: %v", ErrCorrupt, i, j, err)
		}
		if b.MaxTime, err = binary.ReadVarint(br); err != nil {
			return fmt.Errorf("%w: index entry %d block %d maxtime: %v", ErrCorrupt, i, j, err)
		}
		if b.MinTime > b.MaxTime || b.MinTime < m.MinTime || b.MaxTime > m.MaxTime {
			return fmt.Errorf("%w: index entry %d block %d: time range [%d, %d] outside chunk [%d, %d]",
				ErrCorrupt, i, j, b.MinTime, b.MaxTime, m.MinTime, m.MaxTime)
		}
		if len(blocks) > 0 && b.MinTime <= blocks[len(blocks)-1].MaxTime {
			if b.MinTime < blocks[len(blocks)-1].MaxTime {
				return fmt.Errorf("%w: index entry %d block %d: out of time order", ErrCorrupt, i, j)
			}
			r.strict = false
		}
		if b.Stats, err = readStatsEntry(br); err != nil {
			return fmt.Errorf("%w: index entry %d block %d stats: %v", ErrCorrupt, i, j, err)
		}
		if b.Stats == nil {
			r.strict = false
		}
		sum += b.Count
		blocks = append(blocks, b)
	}
	if sum != m.Count {
		return fmt.Errorf("%w: index entry %d: block counts sum to %d, chunk says %d",
			ErrCorrupt, i, sum, m.Count)
	}
	if blocks[0].MinTime != m.MinTime || blocks[len(blocks)-1].MaxTime != m.MaxTime {
		return fmt.Errorf("%w: index entry %d: block time bounds disagree with chunk", ErrCorrupt, i)
	}
	m.Blocks = blocks
	return nil
}

// Index returns the file's chunk metadata.
func (r *Reader) Index() []ChunkMeta {
	out := make([]ChunkMeta, len(r.index))
	copy(out, r.index)
	return out
}

// ReadBlock decodes one block of a chunk, verifying its CRC. The
// block's extent was validated against the file layout at Open, so a
// read never leaves the chunk region.
func (r *Reader) ReadBlock(meta ChunkMeta, b BlockMeta) ([]int64, []float64, error) {
	_, times, values, err := r.ReadBlockInto(meta, b, math.MaxInt64, nil, nil, nil)
	return times, values, err
}

// ReadBlockInto decodes one block like ReadBlock, cut at maxT: it
// returns the block's records up to and including time maxT and does
// not decode the values after them, so a narrow range read pays for
// the part of a block before its range end only (the whole block is
// still read and CRC-checked). It reads into caller scratch: the raw
// block into buf, the decoded columns into times and values, each from
// [:0] and reallocated only when its capacity is short. It returns the
// three, so a caller keeps whatever grew for its next block.
func (r *Reader) ReadBlockInto(meta ChunkMeta, b BlockMeta, maxT int64, buf []byte, times []int64, values []float64) ([]byte, []int64, []float64, error) {
	// A v2 chunk's CRC also covers its name header.
	start := b.Offset
	if r.version == 2 {
		start = meta.Offset
	}
	if n := int(b.Offset + b.Size - start); cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := r.f.ReadAt(buf, start); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: block read: %v", ErrCorrupt, err)
	}
	payload := buf[:len(buf)-4]
	want := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, nil, nil, fmt.Errorf("%w: block crc mismatch: %08x != %08x", ErrCorrupt, got, want)
	}
	payload = payload[b.Offset-start:]
	times, consumed, err := encoding.DecodeTS2DiffInto(times, payload)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: block timestamps: %v", ErrCorrupt, err)
	}
	if len(times) != b.Count {
		return nil, nil, nil, fmt.Errorf("%w: block count %d, index says %d", ErrCorrupt, len(times), b.Count)
	}
	// A strict file's index promises that its blocks' times strictly
	// increase from MinTime to MaxTime; what a file written before that
	// rule holds, Upgrade sorts out.
	if r.strict && !strictSpan(times, b.MinTime, b.MaxTime) {
		return nil, nil, nil, fmt.Errorf("%w: block times not strictly increasing over [%d, %d]", ErrCorrupt, b.MinTime, b.MaxTime)
	}
	if maxT < math.MaxInt64 {
		i, _ := slices.BinarySearch(times, maxT+1)
		times = times[:i]
	}
	values, _, err = encoding.DecodeGorillaInto(values, payload[consumed:], len(times))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: block values: %v", ErrCorrupt, err)
	}
	if len(values) != len(times) {
		return nil, nil, nil, fmt.Errorf("%w: block has %d values for %d of %d timestamps", ErrCorrupt, len(values), len(times), b.Count)
	}
	return buf, times, values, nil
}

// strictSpan reports whether the nonempty times strictly increase from
// lo to hi.
func strictSpan(times []int64, lo, hi int64) bool {
	if times[0] != lo || times[len(times)-1] != hi {
		return false
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return false
		}
	}
	return true
}

// VerifyChunk checks the name header at the start of a chunk against
// its index entry. ReadChunk does it for every chunk it decodes; a
// reader decoding a chunk block by block calls it once per chunk.
func (r *Reader) VerifyChunk(meta ChunkMeta) error {
	hdrLen := meta.Blocks[0].Offset - meta.Offset
	if hdrLen <= 0 || hdrLen > int64(MaxSensorName+10) {
		return fmt.Errorf("%w: chunk header %d bytes", ErrCorrupt, hdrLen)
	}
	buf := make([]byte, hdrLen)
	if _, err := r.f.ReadAt(buf, meta.Offset); err != nil {
		return fmt.Errorf("%w: chunk header: %v", ErrCorrupt, err)
	}
	br := &sliceReader{b: buf}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("%w: chunk name len: %v", ErrCorrupt, err)
	}
	name, err := br.take(int(nameLen))
	if err != nil {
		return fmt.Errorf("%w: chunk name: %v", ErrCorrupt, err)
	}
	if string(name) != meta.Sensor {
		return fmt.Errorf("%w: chunk sensor %q, index says %q", ErrCorrupt, name, meta.Sensor)
	}
	return nil
}

// ReadChunk decodes the whole chunk at meta, verifying its name header
// and every block's CRC. Each block decodes straight into its place in
// the result columns.
func (r *Reader) ReadChunk(meta ChunkMeta) ([]int64, []float64, error) {
	if err := r.VerifyChunk(meta); err != nil {
		return nil, nil, err
	}
	// The index's block counts sum to meta.Count, and each block must
	// decode to its count, so every block fits where it lands.
	times := make([]int64, meta.Count)
	values := make([]float64, meta.Count)
	var buf []byte
	n := 0
	for _, b := range meta.Blocks {
		var ts []int64
		var err error
		buf, ts, _, err = r.ReadBlockInto(meta, b, math.MaxInt64, buf, times[n:n], values[n:n])
		if err != nil {
			return nil, nil, err
		}
		n += len(ts)
	}
	return times, values, nil
}

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// Upgrade rewrites r into w as a strict file that answers what r
// answered: chunk by chunk in index order and block by block, it keeps
// the first record of each equal-timestamp run and drops every record
// at or before the last one it kept for the sensor — the rule reads of
// files written before the strict rule always followed. Each block is
// cut into blocks of at most w.BlockPoints points (a v2 chunk is a
// single block), and a chunk left empty is dropped. Every failure to
// read r is ErrCorrupt; either way the caller closes w.
func Upgrade(r *Reader, w *Writer) error {
	cut := w.BlockPoints
	if cut <= 0 {
		cut = DefaultBlockPoints
	}
	kept := map[string]int64{} // per sensor, the last time kept
	var buf []byte
	var times []int64
	var values []float64
	for _, m := range r.index {
		if err := r.VerifyChunk(m); err != nil {
			return err
		}
		begun := false
		for _, b := range m.Blocks {
			var err error
			buf, times, values, err = r.ReadBlockInto(m, b, math.MaxInt64, buf, times, values)
			if err != nil {
				return err
			}
			last, seen := kept[m.Sensor]
			n := 0
			for i, t := range times {
				if !seen || t > last {
					times[n], values[n] = t, values[i]
					n++
					last, seen = t, true
				}
			}
			if n > 0 {
				kept[m.Sensor] = last
			}
			for lo := 0; lo < n; lo += cut {
				if !begun {
					if err := w.BeginChunk(m.Sensor); err != nil {
						return err
					}
					begun = true
				}
				hi := min(lo+cut, n)
				if err := w.AppendBlock(times[lo:hi], values[lo:hi]); err != nil {
					return err
				}
			}
		}
		if begun {
			if err := w.EndChunk(); err != nil {
				return err
			}
		}
	}
	return nil
}

// sliceReader is a byte-slice io.ByteReader with a take helper.
type sliceReader struct {
	b   []byte
	pos int
}

func (s *sliceReader) ReadByte() (byte, error) {
	if s.pos >= len(s.b) {
		return 0, io.ErrUnexpectedEOF
	}
	c := s.b[s.pos]
	s.pos++
	return c, nil
}

func (s *sliceReader) take(n int) ([]byte, error) {
	if n < 0 || n > len(s.b)-s.pos {
		return nil, io.ErrUnexpectedEOF
	}
	out := s.b[s.pos : s.pos+n]
	s.pos += n
	return out, nil
}
