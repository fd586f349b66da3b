package tsfile

import (
	"os"
	"path/filepath"
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

// FuzzOpen feeds arbitrary bytes through the read calls the engine
// makes: Open, index iteration, ReadChunk, and ReadBlockUpTo cut in the
// middle of every block. The invariant under test is that hostile
// input produces an error (almost always ErrCorrupt), never a panic,
// hang, or unbounded allocation.
func FuzzOpen(f *testing.F) {
	seed := goldenV2(f)
	f.Add(seed)
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
				r.ReadBlockUpTo(m, b, b.MinTime/2+b.MaxTime/2)
			}
		}
	})
}
