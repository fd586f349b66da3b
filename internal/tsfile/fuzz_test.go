package tsfile

import (
	"errors"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// fuzzSeedV3 builds a small valid v3 (blocked) file and returns its
// raw bytes, so the fuzzer mutates block indexes too.
func fuzzSeedV3(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed3.gtsf")
	w, err := Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	w.BlockPoints = 4
	times := make([]int64, 20)
	values := make([]float64, 20)
	for i := range times {
		times[i] = int64(i * 2)
		values[i] = float64(i) + 0.5
	}
	if err := w.WriteChunk("s1", times, values); err != nil {
		tb.Fatal(err)
	}
	if err := w.WriteChunk("s2", times[:3], values[:3]); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// checkUpgrade upgrades r into a file at path. Upgrade must fail with
// ErrCorrupt exactly when reading r's chunks in index order with
// ReadChunk fails; otherwise the file it writes must open strict and
// hold, per sensor, the first record of each equal-timestamp run of
// those chunks, with every record at or before the last one kept
// dropped, in blocks of at most blockPoints points (<= 0: the default).
func checkUpgrade(t *testing.T, r *Reader, path string, blockPoints int) {
	t.Helper()
	type rec struct {
		t int64
		v uint64 // value bits: hostile input decodes to NaNs too
	}
	want := map[string][]rec{}
	var readErr error
	for _, m := range r.Index() {
		ts, vs, err := r.ReadChunk(m)
		if err != nil {
			readErr = err
			break
		}
		for i, x := range ts {
			if k := want[m.Sensor]; len(k) == 0 || x > k[len(k)-1].t {
				want[m.Sensor] = append(k, rec{x, math.Float64bits(vs[i])})
			}
		}
	}
	w, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close() // a failed upgrade may stop mid-chunk
	w.BlockPoints = blockPoints
	err = Upgrade(r, w)
	if err != nil || readErr != nil {
		if !errors.Is(err, ErrCorrupt) || readErr == nil {
			t.Fatalf("Upgrade = %v, reading the chunks = %v", err, readErr)
		}
		return
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	up, err := Open(path)
	if err != nil {
		t.Fatalf("upgraded file: %v", err)
	}
	defer up.Close()
	if !up.Strict() {
		t.Fatal("upgraded file opens non-strict")
	}
	if blockPoints <= 0 {
		blockPoints = DefaultBlockPoints
	}
	got := map[string][]rec{}
	for _, m := range up.Index() {
		for _, b := range m.Blocks {
			if b.Count > blockPoints {
				t.Fatalf("upgraded %q has a %d-point block, want at most %d", m.Sensor, b.Count, blockPoints)
			}
		}
		ts, vs, err := up.ReadChunk(m)
		if err != nil {
			t.Fatalf("upgraded file: %v", err)
		}
		for i, x := range ts {
			got[m.Sensor] = append(got[m.Sensor], rec{x, math.Float64bits(vs[i])})
		}
	}
	if !maps.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("upgraded records %v, want %v", got, want)
	}
}

// TestUpgradeFixtures upgrades the files older writers left —
// testdata/v2.gtsf, v3dup.gtsf and v3edge.gtsf — in blocks of 2 and
// of the default size.
func TestUpgradeFixtures(t *testing.T) {
	for _, name := range []string{"v2.gtsf", "v3dup.gtsf", "v3edge.gtsf"} {
		r, err := Open(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.Strict() {
			t.Fatalf("%s opens strict", name)
		}
		for _, bp := range []int{2, 0} {
			checkUpgrade(t, r, filepath.Join(t.TempDir(), name), bp)
		}
	}
}

// FuzzOpen feeds arbitrary bytes through the read calls the engine
// makes: Open, index iteration, ReadChunk, ReadBlockInto cut in the
// middle of every block, and Upgrade (checkUpgrade). The invariant
// under test is that hostile input produces an error (almost always
// ErrCorrupt), never a panic, hang, or unbounded allocation.
func FuzzOpen(f *testing.F) {
	seed := goldenV2(f)
	f.Add(seed)
	for _, name := range []string{"v3dup.gtsf", "v3edge.gtsf"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	// A few targeted mutations so the corpus starts near the
	// interesting surfaces: footer, index offset, index body.
	for _, i := range []int{len(seed) - 1, len(seed) - 9, len(seed) - 17, len(seed) / 2, 0} {
		if i >= 0 && i < len(seed) {
			mut := append([]byte(nil), seed...)
			mut[i] ^= 0xff
			f.Add(mut)
		}
	}
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	seed3 := fuzzSeedV3(f)
	f.Add(seed3)
	// Mutations targeting the v3 footer and block-index region.
	for _, i := range []int{len(seed3) - 1, len(seed3) - 9, len(seed3) - 17,
		len(seed3) - 24, len(seed3) - 32, len(seed3) / 2} {
		if i >= 0 && i < len(seed3) {
			mut := append([]byte(nil), seed3...)
			mut[i] ^= 0xff
			f.Add(mut)
		}
	}
	f.Add(seed3[:len(seed3)-int(tailLen)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // keep iterations fast; size bugs are offset bugs
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "f.gtsf")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		r, err := Open(path)
		if err != nil {
			return // rejected cleanly — fine
		}
		defer r.Close()
		for _, m := range r.Index() {
			r.ReadChunk(m)
			for _, b := range m.Blocks {
				r.ReadBlockInto(m, b, b.MinTime/2+b.MaxTime/2, nil, nil, nil)
			}
		}
		checkUpgrade(t, r, filepath.Join(dir, "up.gtsf"), 3)
	})
}
