package main

import (
	"path/filepath"
	"strings"
	"sync/atomic"

	"repro/internal/faultfs"
)

// Write classes: what a file is for, read off the path the engine
// creates it under (wal-*.log in a shard directory, flush output in
// p<epoch>/L0/, compaction output in p<epoch>/L<n>/ for n >= 1).
const (
	fileWAL = iota
	fileFlush
	fileCompact
	fileOther // the series catalog, shard layout marker
	fileClasses
)

func classifyPath(path string) int {
	if strings.HasPrefix(filepath.Base(path), "wal-") {
		return fileWAL
	}
	level := filepath.Base(filepath.Dir(path))
	switch {
	case level == "L0":
		return fileFlush
	case strings.HasPrefix(level, "L"):
		return fileCompact
	}
	return fileOther
}

// deviceFS is the engine's filesystem seam with counters on it. The
// counters are always on (an atomic add per call) because write
// amplification is an end-to-end metric; call timing and spans are
// added only while a tracer is recording.
type deviceFS struct {
	under faultfs.FS
	tr    *tracer // nil outside traced runs

	writes    atomic.Int64
	bytes     [fileClasses]atomic.Int64
	syncs     atomic.Int64
	dirSyncs  atomic.Int64
	renames   atomic.Int64
	syncNanos atomic.Int64 // file + directory fsync time, traced slices only
}

func newDeviceFS(tr *tracer) *deviceFS { return &deviceFS{under: faultfs.OS, tr: tr} }

func (d *deviceFS) totalBytes() int64 {
	var n int64
	for i := range d.bytes {
		n += d.bytes[i].Load()
	}
	return n
}

// begin opens a device span when tracing is on; the caller passes it to
// end after the call. Outside traced slices both cost one atomic load.
// walRecord is the bytes of a WAL write, which name the request that
// caused it; every other call is background work, a root span.
func (d *deviceFS) begin(name string, walRecord []byte) (s span, traced bool) {
	if d.tr == nil || !d.tr.on.Load() {
		return span{}, false
	}
	var l link
	if walRecord != nil {
		l = d.tr.insertOf(walRecord)
	}
	s = span{ID: d.tr.id(), Parent: l.parent, Op: l.op, Name: name}
	if s.Op == 0 {
		s.Op = s.ID
	}
	s.Start = d.tr.since()
	return s, true
}

// end closes a span begin opened and returns its duration (0 for an
// untraced call).
func (d *deviceFS) end(s span, traced bool) int64 {
	if !traced {
		return 0
	}
	s.End = d.tr.since()
	d.tr.record(s)
	return s.End - s.Start
}

func (d *deviceFS) Create(path string) (faultfs.File, error) {
	s, traced := d.begin("device.create", nil)
	f, err := d.under.Create(path)
	d.end(s, traced)
	if err != nil {
		return nil, err
	}
	return &deviceFile{File: f, fs: d, class: classifyPath(path)}, nil
}

func (d *deviceFS) MkdirAll(path string) error { return d.under.MkdirAll(path) }

func (d *deviceFS) Rename(oldpath, newpath string) error {
	d.renames.Add(1)
	s, traced := d.begin("device.rename", nil)
	err := d.under.Rename(oldpath, newpath)
	d.end(s, traced)
	return err
}

func (d *deviceFS) Remove(path string) error { return d.under.Remove(path) }

func (d *deviceFS) SyncDir(dir string) error {
	d.dirSyncs.Add(1)
	s, traced := d.begin("device.syncdir", nil)
	err := d.under.SyncDir(dir)
	d.syncNanos.Add(d.end(s, traced))
	return err
}

type deviceFile struct {
	faultfs.File
	fs    *deviceFS
	class int
}

var writeSpanNames = [fileClasses]string{"device.write_wal", "device.write_flush", "device.write_compact", "device.write_other"}

func (f *deviceFile) Write(p []byte) (int, error) {
	f.fs.writes.Add(1)
	f.fs.bytes[f.class].Add(int64(len(p)))
	var walRecord []byte
	if f.class == fileWAL {
		walRecord = p
	}
	s, traced := f.fs.begin(writeSpanNames[f.class], walRecord)
	n, err := f.File.Write(p)
	f.fs.end(s, traced)
	return n, err
}

func (f *deviceFile) Sync() error {
	f.fs.syncs.Add(1)
	s, traced := f.fs.begin("device.sync", nil)
	err := f.File.Sync()
	f.fs.syncNanos.Add(f.fs.end(s, traced))
	return err
}
