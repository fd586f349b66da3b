package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"repro/internal/faultfs"
	"repro/internal/wal"
)

// The series catalog is an append-only log of registrations, one
// record per new series, in the WAL's record framing (wal.AppendFrame,
// read back by wal.ReadFrames):
//
//	uint32 payloadLen | payload | uint32 CRC-32(payload)
//
// with payload = uvarint(seriesID) + canonical label-set bytes.
//
// faultfs.FS has no append-open (crash injection only concerns the
// write path, and the engine's other logs are create-once), so reopen
// replays the existing file with a plain read handle, then rewrites a
// compacted copy through fs.Create + atomic rename and keeps that
// handle for subsequent appends — the inode survives the rename, so
// appends through the kept handle land in the live catalog. The
// rewrite also heals a torn tail left by a crash mid-append. A store
// that never registers a series never creates the file, so
// flat-sensor directories stay label-free.

const (
	catalogName = "catalog.log"
	// maxCatalogRecord bounds one record; far above any sane label set,
	// low enough that a corrupt length prefix cannot demand gigabytes.
	maxCatalogRecord = 1 << 20
)

type catalog struct {
	fs      faultfs.FS
	dir     string
	path    string
	durable bool
	f       faultfs.File // nil until first append when no records replayed
	closed  bool
}

type record struct {
	id        SeriesID
	canonical string
}

// openCatalog replays dir/catalog.log (if present) through add, then
// prepares the append handle. Torn final records are dropped; earlier
// corruption is an error. When records were replayed the file is
// rewritten compacted (tmp + rename) and that handle kept open;
// otherwise the file is created lazily on first append.
func openCatalog(dir string, opts Options, add func(id SeriesID, canonical string) error) (*catalog, error) {
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("index: mkdir %s: %w", dir, err)
	}
	c := &catalog{
		fs:      opts.FS,
		dir:     dir,
		path:    filepath.Join(dir, catalogName),
		durable: opts.Durable,
	}
	var records []record
	err := wal.ReadFrames(c.path, "index", maxCatalogRecord, func(payload []byte, offset int64) error {
		r, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("index: %s: offset %d: %w", c.path, offset, err)
		}
		if err := add(r.id, r.canonical); err != nil {
			return err
		}
		records = append(records, r)
		return nil
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	if len(records) == 0 {
		return c, nil
	}
	if err := c.rewrite(records); err != nil {
		return nil, err
	}
	return c, nil
}

func decodeRecord(payload []byte) (record, error) {
	id, n := binary.Uvarint(payload)
	if n <= 0 {
		return record{}, fmt.Errorf("bad series id varint")
	}
	if len(payload) == n {
		return record{}, fmt.Errorf("empty canonical encoding")
	}
	return record{id: SeriesID(id), canonical: string(payload[n:])}, nil
}

func encodeRecord(r record) []byte {
	payload := binary.AppendUvarint(nil, uint64(r.id))
	payload = append(payload, r.canonical...)
	return wal.AppendFrame(make([]byte, 0, len(payload)+8), payload)
}

// rewrite writes records into a fresh tmp file and atomically renames
// it over the catalog, keeping the handle open for appends.
func (c *catalog) rewrite(records []record) error {
	tmp := c.path + ".tmp"
	f, err := c.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("index: create %s: %w", tmp, err)
	}
	for _, r := range records {
		if _, err := f.Write(encodeRecord(r)); err != nil {
			f.Close()
			return fmt.Errorf("index: rewrite %s: %w", tmp, err)
		}
	}
	if c.durable {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("index: sync %s: %w", tmp, err)
		}
	}
	if err := c.fs.Rename(tmp, c.path); err != nil {
		f.Close()
		return fmt.Errorf("index: rename %s: %w", tmp, err)
	}
	if c.durable {
		if err := c.fs.SyncDir(c.dir); err != nil {
			f.Close()
			return fmt.Errorf("index: syncdir %s: %w", c.dir, err)
		}
	}
	c.f = f
	return nil
}

// append writes one registration record, fsyncing when durable. The
// caller holds the index write lock, so appends are serialized.
func (c *catalog) append(id SeriesID, canonical string) error {
	if c.closed {
		return fmt.Errorf("index: catalog closed")
	}
	if c.f == nil {
		f, err := c.fs.Create(c.path)
		if err != nil {
			return fmt.Errorf("index: create %s: %w", c.path, err)
		}
		c.f = f
		if c.durable {
			if err := c.fs.SyncDir(c.dir); err != nil {
				return fmt.Errorf("index: syncdir %s: %w", c.dir, err)
			}
		}
	}
	if _, err := c.f.Write(encodeRecord(record{id: id, canonical: canonical})); err != nil {
		return err
	}
	if c.durable {
		if err := c.f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

func (c *catalog) close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}
