package encoding

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

func TestTS2DiffRoundTrip(t *testing.T) {
	cases := [][]int64{
		nil,
		{0},
		{5},
		{-7, -7, -7},
		{1, 2, 3, 4, 5},
		{1000, 2000, 1500, 9},
		{math.MinInt64, math.MaxInt64, 0},
	}
	for _, c := range cases {
		enc := AppendTS2Diff(nil, c)
		got, n, err := DecodeTS2Diff(enc)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if n != len(enc) {
			t.Fatalf("%v: consumed %d of %d", c, n, len(enc))
		}
		if len(got) != len(c) {
			t.Fatalf("%v: got %v", c, got)
		}
		for i := range c {
			if got[i] != c[i] {
				t.Fatalf("%v: got %v", c, got)
			}
		}
	}
}

func TestTS2DiffQuick(t *testing.T) {
	f := func(vals []int64) bool {
		enc := AppendTS2Diff(nil, vals)
		got, _, err := DecodeTS2Diff(enc)
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTS2DiffCompressesSorted(t *testing.T) {
	times := make([]int64, 10000)
	for i := range times {
		times[i] = int64(i) * 1000
	}
	enc := AppendTS2Diff(nil, times)
	if len(enc) > 2*len(times)+16 {
		t.Fatalf("sorted timestamps encoded to %d bytes (%.1f B/value)", len(enc), float64(len(enc))/float64(len(times)))
	}
}

func TestTS2DiffCorrupt(t *testing.T) {
	enc := AppendTS2Diff(nil, []int64{1, 2, 3})
	if _, _, err := DecodeTS2Diff(enc[:len(enc)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated input accepted: %v", err)
	}
	if _, _, err := DecodeTS2Diff(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatal("empty input accepted")
	}
	// Absurd count.
	if _, _, err := DecodeTS2Diff([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}); !errors.Is(err, ErrCorrupt) {
		t.Fatal("absurd count accepted")
	}
}

func TestGorillaRoundTrip(t *testing.T) {
	cases := [][]float64{
		nil,
		{0},
		{1.5},
		{1.5, 1.5, 1.5, 1.5},
		{1, 2, 4, 8, 16},
		{0, -0.0, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64},
		{3.14159, 3.14160, 3.14161, 3.15},
	}
	for _, c := range cases {
		enc := AppendGorilla(nil, c)
		got, n, err := DecodeGorilla(enc)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if n != len(enc) {
			t.Fatalf("%v: consumed %d of %d", c, n, len(enc))
		}
		if len(got) != len(c) {
			t.Fatalf("%v: got %v", c, got)
		}
		for i := range c {
			if math.Float64bits(got[i]) != math.Float64bits(c[i]) {
				t.Fatalf("%v: value %d round-tripped to %v", c, i, got[i])
			}
		}
		// Every prefix decodes to the head of the full decode and
		// still consumes the whole sequence.
		for limit := -1; limit <= len(c)+1; limit++ {
			head, n, err := DecodeGorillaInto(nil, enc, limit)
			want := got[:min(max(limit, 0), len(got))]
			if err != nil || n != len(enc) || len(head) != len(want) {
				t.Fatalf("%v limit %d: %d values, consumed %d, %v", c, limit, len(head), n, err)
			}
			for i := range want {
				if math.Float64bits(head[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v limit %d: value %d = %v", c, limit, i, head[i])
				}
			}
		}
	}
}

func TestGorillaNaN(t *testing.T) {
	enc := AppendGorilla(nil, []float64{1, math.NaN(), 2})
	got, _, err := DecodeGorilla(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got[1]) || got[0] != 1 || got[2] != 2 {
		t.Fatalf("NaN round trip: %v", got)
	}
}

func TestGorillaQuick(t *testing.T) {
	f := func(vals []float64) bool {
		enc := AppendGorilla(nil, vals)
		got, n, err := DecodeGorilla(enc)
		if err != nil || n != len(enc) || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGorillaCompressesSmoothSignals(t *testing.T) {
	// A slowly varying sensor signal should cost well under 8 B/value.
	n := 10000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 20 + math.Sin(float64(i)/100)
	}
	enc := AppendGorilla(nil, vals)
	perValue := float64(len(enc)) / float64(n)
	// A transcendental signal still churns most mantissa bits, so the
	// win is modest — but it must beat raw 8 B/value.
	if perValue > 7.5 {
		t.Fatalf("gorilla did not compress a smooth signal: %.2f B/value", perValue)
	}
	// Constant signals approach 1 bit per value.
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 42
	}
	encC := AppendGorilla(nil, constant)
	if float64(len(encC))/float64(n) > 0.5 {
		t.Fatalf("gorilla constant signal: %.2f B/value", float64(len(encC))/float64(n))
	}
}

func TestGorillaCorrupt(t *testing.T) {
	enc := AppendGorilla(nil, []float64{1, 2, 3, 4})
	for _, cut := range []int{1, 3, len(enc) - 1} {
		if _, _, err := DecodeGorilla(enc[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d accepted: %v", cut, err)
		}
	}
	if _, _, err := DecodeGorilla(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatal("empty input accepted")
	}
	// A count the blob's bits cannot hold fails before it sizes a column.
	huge := binary.AppendUvarint(binary.AppendUvarint(nil, 1<<62), 8)
	huge = append(huge, 1, 2, 3, 4, 5, 6, 7, 8)
	if _, _, err := DecodeGorilla(huge); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("count 2^62 over an 8-byte blob: %v", err)
	}
}

func TestGorillaCorruptFuzz(t *testing.T) {
	// Random corruption must produce errors or wrong values — never a
	// panic or an infinite loop.
	r := rand.New(rand.NewSource(3))
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = r.NormFloat64()
	}
	enc := AppendGorilla(nil, vals)
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), enc...)
		mut[r.Intn(len(mut))] ^= byte(1 << r.Intn(8))
		_, _, _ = DecodeGorilla(mut) // must simply not crash
	}
}

func TestPlainFloat64RoundTrip(t *testing.T) {
	vals := []float64{1.5, -2.25, math.Inf(1), 0}
	enc := AppendPlainFloat64(nil, vals)
	got, n, err := DecodePlainFloat64Into(nil, enc)
	if err != nil || n != len(enc) {
		t.Fatalf("err=%v n=%d", err, n)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("got %v", got)
		}
	}
	if _, _, err := DecodePlainFloat64Into(nil, enc[:5]); !errors.Is(err, ErrCorrupt) {
		t.Fatal("truncated plain accepted")
	}
	// A count whose byte size overflows int is truncation, not a panic.
	if _, _, err := DecodePlainFloat64Into(nil, binary.AppendUvarint(nil, 1<<61)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("count 2^61 over no bytes: %v", err)
	}
}

func TestBitWriterReader(t *testing.T) {
	w := &bitWriter{buf: make([]byte, 16)}
	w.writeBits(0b101, 3)
	w.writeBits(0xFFFF, 16)
	w.writeBits(0, 1)
	w.writeBits(1, 1)
	r := &bitReader{buf: w.finish()}
	if v, _ := r.readBits(3); v != 0b101 {
		t.Fatalf("3 bits = %b", v)
	}
	if v, _ := r.readBits(16); v != 0xFFFF {
		t.Fatalf("16 bits = %x", v)
	}
	if v, _ := r.readBits(1); v != 0 {
		t.Fatal("bit != 0")
	}
	if v, _ := r.readBits(1); v != 1 {
		t.Fatal("bit != 1")
	}
}

// signal is a block of the benchmark ledger's value signal: the
// dataset's sensor signal rounded to 1/1024.
func signal(n int) ([]int64, []float64) {
	times := make([]int64, n)
	vals := make([]float64, n)
	for i := range vals {
		times[i] = int64(i) * 10
		vals[i] = math.Round(dataset.Signal(int64(i)*100)*1024) / 1024
	}
	return times, vals
}

// TestDecodeIntoAllocs: decoding into a column with enough capacity
// allocates nothing.
func TestDecodeIntoAllocs(t *testing.T) {
	times, vals := signal(4096)
	tsEnc := AppendTS2Diff(nil, times)
	gEnc := AppendGorilla(nil, vals)
	pEnc := AppendPlainFloat64(nil, vals)
	ts := make([]int64, 0, len(times))
	vs := make([]float64, 0, len(vals))
	for name, decode := range map[string]func() error{
		"ts2diff": func() (err error) { ts, _, err = DecodeTS2DiffInto(ts, tsEnc); return err },
		"gorilla": func() (err error) { vs, _, err = DecodeGorillaInto(vs, gEnc, len(vals)); return err },
		"plain":   func() (err error) { vs, _, err = DecodePlainFloat64Into(vs, pEnc); return err },
	} {
		var err error
		if allocs := testing.AllocsPerRun(20, func() { err = decode() }); allocs != 0 || err != nil {
			t.Fatalf("%s: %v allocations per decode into capacity, err %v", name, allocs, err)
		}
	}
}

func BenchmarkGorillaDecode(b *testing.B) {
	_, vals := signal(4096)
	enc := AppendGorilla(nil, vals)
	out := make([]float64, 0, len(vals))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, _ = DecodeGorillaInto(out, enc, len(vals))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
}

func BenchmarkTS2DiffDecode(b *testing.B) {
	times, _ := signal(4096)
	enc := AppendTS2Diff(nil, times)
	out := make([]int64, 0, len(times))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, _ = DecodeTS2DiffInto(out, enc)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(times)), "ns/value")
}

func BenchmarkGorillaEncode(b *testing.B) {
	_, vals := signal(4096)
	var enc []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc = AppendGorilla(enc[:0], vals)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
}
