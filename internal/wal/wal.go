// Package wal implements the storage engine's write-ahead log.
// Apache IoTDB logs every write before acknowledging it so that
// memtable contents survive a crash; this package provides the same
// guarantee for the reproduction's engine. Each memtable generation
// gets its own segment file; once that generation is flushed to a
// chunk file the segment is deleted.
//
// Segment format: a sequence of length-prefixed records,
//
//	uint32 payloadLen | payload | uint32 CRC-32(payload)
//
// where payload is the batch encoded by encoding.AppendBatch (uvarint
// name length, sensor, TS2Diff times, plain float64 values; one record
// per ingested batch) — byte for byte the payload of the RPC insert
// that carried the batch. Replay stops at the first
// torn or corrupt record — everything before it is intact, everything
// after it was never acknowledged.
//
// Durability is layered: Append alone survives a process crash (the
// write reaches the OS), Sync survives a machine crash, and Commit is
// the group-commit form of Sync — concurrent committers piggyback on
// one in-flight fsync instead of queueing one fsync each, so
// fsync-per-batch ingestion degrades into fsync-per-group as
// concurrency rises. All file operations go through a faultfs.FS so
// crash tests can kill the "process" at any operation.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/encoding"
	"repro/internal/faultfs"
)

// SyncStats aggregates fsync activity across segments. An engine hands
// the same SyncStats to every segment it creates, so the counters
// describe the whole WAL, not one generation.
type SyncStats struct {
	// Syncs is the number of fsyncs issued on segment files.
	Syncs atomic.Int64
	// Commits is the number of commit tickets served; under group
	// commit, Commits/Syncs is the mean commit-group size.
	Commits atomic.Int64
}

// Options configures a segment beyond its path.
type Options struct {
	// Durable makes segment lifecycle changes survive a machine crash:
	// Create and Remove fsync the parent directory, so a recovered
	// machine agrees with the engine about which segments exist.
	Durable bool
	// Stats receives this segment's fsync counters (nil: counters are
	// kept on a private SyncStats).
	Stats *SyncStats
}

// Segment is an open, appendable WAL segment. Appends must be
// serialized by the caller (the engine appends under its lock);
// Commit, Sync, Close and Remove are safe to call concurrently with
// each other.
type Segment struct {
	fs      faultfs.FS
	f       faultfs.File
	path    string
	durable bool
	stats   *SyncStats
	batches atomic.Int64

	// Group commit: committers send a ticket to commitCh and a lazily
	// started syncer goroutine serves whole groups per fsync. cmu
	// guards the lazy start and the stop handshake.
	cmu      sync.Mutex
	commitCh chan chan error
	stop     chan struct{}
	loopDone chan struct{}
	stopped  bool
}

// maxRecord bounds one WAL record (same spirit as rpc.MaxFrame).
const maxRecord = 64 << 20

// Create opens a fresh segment at path on the real filesystem,
// truncating any previous file.
func Create(path string) (*Segment, error) {
	return CreateFS(faultfs.OS, path, Options{})
}

// CreateFS opens a fresh segment at path through fs.
func CreateFS(fs faultfs.FS, path string, opts Options) (*Segment, error) {
	f, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	if opts.Durable {
		if err := fs.SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	stats := opts.Stats
	if stats == nil {
		stats = &SyncStats{}
	}
	return &Segment{fs: fs, f: f, path: path, durable: opts.Durable, stats: stats}, nil
}

// Path returns the segment's file path.
func (s *Segment) Path() string { return s.path }

// Batches returns how many records have been appended to this segment.
func (s *Segment) Batches() int64 { return s.batches.Load() }

// Empty reports whether the segment has no appended records — i.e.
// deleting it provably cannot lose acknowledged writes.
func (s *Segment) Empty() bool { return s.batches.Load() == 0 }

// Append logs one batch. The write goes straight to the OS so a
// process crash (not machine crash) loses nothing; call Sync or Commit
// for machine-crash durability.
func (s *Segment) Append(sensor string, times []int64, values []float64) error {
	if len(times) != len(values) {
		return fmt.Errorf("wal: batch shape mismatch: %d times, %d values", len(times), len(values))
	}
	// One buffer, sized so AppendBatch never regrows it, holds the whole
	// frame (AppendFrame's layout): a reserved length word, patched once
	// the payload's size is known, the payload and the CRC word.
	n := len(times)
	rec := make([]byte, 4, 8+len(sensor)+binary.MaxVarintLen64*(n+3)+8*n)
	rec = encoding.AppendBatch(rec, sensor, times, values)
	payload := rec[4:]
	if len(payload) > maxRecord {
		return fmt.Errorf("wal: record too large: %d bytes", len(payload))
	}
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	if _, err := s.f.Write(rec); err != nil {
		return err
	}
	s.batches.Add(1)
	return nil
}

// Sync forces the segment to stable storage with a dedicated fsync.
// Prefer Commit on hot paths — it coalesces concurrent callers.
func (s *Segment) Sync() error {
	s.stats.Syncs.Add(1)
	return s.f.Sync()
}

// Commit makes everything appended so far durable, sharing one fsync
// with every other in-flight committer (group commit): the first
// ticket starts a sync round, tickets arriving while that fsync runs
// form the next round. Callers must have finished their Append before
// calling Commit — the fsync that answers a ticket always starts after
// the ticket was queued.
//
// Commit on a retired segment (Close or Remove already called) returns
// nil: segments are retired only once their generation is durable
// elsewhere (flushed and fsynced as a chunk file) or the engine has
// stopped accepting writes.
func (s *Segment) Commit() error {
	s.cmu.Lock()
	if s.stopped {
		s.cmu.Unlock()
		return nil
	}
	if s.commitCh == nil {
		s.commitCh = make(chan chan error)
		s.stop = make(chan struct{})
		s.loopDone = make(chan struct{})
		go s.syncLoop()
	}
	commitCh, stop := s.commitCh, s.stop
	s.cmu.Unlock()

	ticket := make(chan error, 1)
	select {
	case commitCh <- ticket:
		return <-ticket
	case <-stop:
		return nil
	}
}

// syncLoop serves commit tickets: it collects every ticket queued at
// the moment it becomes free, issues one fsync for the whole group,
// and delivers the result to each. Tickets that arrive mid-fsync wait
// for the next round.
func (s *Segment) syncLoop() {
	defer close(s.loopDone)
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		var group []chan error
		select {
		case t := <-s.commitCh:
			group = append(group, t)
		case <-s.stop:
			return
		}
		// Coalesce: every committer already blocked on send joins this
		// round.
		for {
			select {
			case t := <-s.commitCh:
				group = append(group, t)
				continue
			default:
			}
			break
		}
		err := s.f.Sync()
		s.stats.Syncs.Add(1)
		s.stats.Commits.Add(int64(len(group)))
		for _, t := range group {
			t <- err
		}
	}
}

// stopSync shuts the group-commit goroutine down (idempotent). Pending
// and future committers get nil — see Commit.
func (s *Segment) stopSync() {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	if s.stopped {
		return
	}
	s.stopped = true
	if s.commitCh != nil {
		close(s.stop)
		<-s.loopDone
	}
}

// Close closes the segment file (without deleting it).
func (s *Segment) Close() error {
	s.stopSync()
	return s.f.Close()
}

// Remove closes and deletes the segment — called once its memtable
// generation is safely flushed.
func (s *Segment) Remove() error {
	s.stopSync()
	if err := s.f.Close(); err != nil {
		return err
	}
	if err := s.fs.Remove(s.path); err != nil {
		return err
	}
	if s.durable {
		return s.fs.SyncDir(filepath.Dir(s.path))
	}
	return nil
}

// Batch is one replayed WAL record.
type Batch struct {
	Sensor string
	Times  []int64
	Values []float64
}

// AppendFrame appends one record in the log framing to b:
//
//	uint32 len(payload) | payload | uint32 CRC-32(payload)
//
// The WAL and the series catalog share it.
func AppendFrame(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// Replay reads a segment file and invokes fn for each intact batch in
// append order, with ReadFrames' torn-tail and corruption rules.
func Replay(path string, fn func(Batch) error) error {
	return ReadFrames(path, "wal", maxRecord, func(payload []byte, offset int64) error {
		var b Batch
		var err error
		if b.Sensor, b.Times, b.Values, err = encoding.DecodeBatch(payload); err != nil {
			return fmt.Errorf("wal: %s: offset %d: %w", path, offset, err)
		}
		return fn(b)
	})
}

// ReadFrames streams the records of the AppendFrame log at path
// through fn in append order, with each payload's file offset; the
// payload is only valid during the call. A torn tail (a partial final
// record, or a bad CRC on the last one, e.g. from a crash mid-write)
// ends the read silently. A length outside (0, maxLen] or a CRC
// mismatch with bytes after it is reported as an error, prefixed with
// prefix and path, because it means acknowledged records are lost.
// Errors from fn and from opening path are returned as they are.
//
// The file is streamed through a bounded buffer — peak memory is one
// record, not the file size, so recovering a large generation does
// not double the engine's footprint.
func ReadFrames(path, prefix string, maxLen int, fn func(payload []byte, offset int64) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr [4]byte
	var buf []byte
	offset := int64(0)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil // clean end, or torn length prefix
			}
			return err
		}
		plen := int(binary.LittleEndian.Uint32(hdr[:]))
		if plen <= 0 || plen > maxLen {
			return fmt.Errorf("%s: %s: invalid record length %d at offset %d", prefix, path, plen, offset)
		}
		if cap(buf) < plen+4 {
			buf = make([]byte, plen+4)
		}
		buf = buf[:plen+4]
		if _, err := io.ReadFull(br, buf); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil // torn tail
			}
			return err
		}
		payload := buf[:plen]
		want := binary.LittleEndian.Uint32(buf[plen:])
		if crc32.ChecksumIEEE(payload) != want {
			// A bad CRC on the very last record is a torn final write;
			// anything following it makes this mid-file corruption.
			if _, err := br.ReadByte(); err == io.EOF {
				return nil
			}
			return fmt.Errorf("%s: %s: CRC mismatch at offset %d", prefix, path, offset)
		}
		if err := fn(payload, offset); err != nil {
			return err
		}
		offset += int64(4 + plen + 4)
	}
}

// SegmentName returns the canonical file name for a segment sequence
// number: wal-<seq zero-padded to 9 digits>.log. Sequence numbers
// beyond 9 digits simply grow the name; Segments orders numerically,
// so the rollover does not misorder recovery.
func SegmentName(seq int) string {
	return fmt.Sprintf("wal-%09d.log", seq)
}

// SeqFromName parses the sequence number out of a segment file name
// (base name, not path). It returns false for anything that is not
// exactly wal-<digits>.log.
func SeqFromName(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "wal-")
	if !ok {
		return 0, false
	}
	digits, ok := strings.CutSuffix(rest, ".log")
	if !ok || digits == "" {
		return 0, false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return 0, false
		}
	}
	seq, err := strconv.Atoi(digits)
	if err != nil {
		return 0, false // e.g. overflow
	}
	return seq, true
}

// Segments lists the WAL segment files under dir in creation order.
// Order is by parsed sequence number, not lexical — zero padding runs
// out at 10-digit sequence numbers and a lexical sort would then
// replay generations out of order. Files matching the wal-*.log glob
// whose names do not parse as wal-<digits>.log are not ours and are
// skipped.
func Segments(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	type seg struct {
		path string
		seq  int
	}
	segs := make([]seg, 0, len(matches))
	for _, path := range matches {
		if seq, ok := SeqFromName(filepath.Base(path)); ok {
			segs = append(segs, seg{path, seq})
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].seq < segs[b].seq })
	out := make([]string, len(segs))
	for i, s := range segs {
		out[i] = s.path
	}
	return out, nil
}
