package encoding

// The bit-at-a-time Gorilla and TS2Diff codecs the word-at-a-time ones
// replaced, kept as the fuzzers' references: the decoders must agree
// with them value for value, byte for byte consumed and error for
// error, and the encoder must write their bytes.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// refDecodeTS2Diff also refuses overlong varints (a final zero byte
// after the first), as DecodeTS2DiffInto does.
func refDecodeTS2Diff(src []byte) ([]int64, int, error) {
	n, read := binary.Uvarint(src)
	if read <= 0 || read > 1 && src[read-1] == 0 {
		return nil, 0, fmt.Errorf("%w: ts2diff count", ErrCorrupt)
	}
	pos := read
	if n > uint64(len(src)) { // cheap sanity bound: ≥1 byte per value
		return nil, 0, fmt.Errorf("%w: ts2diff count %d exceeds input", ErrCorrupt, n)
	}
	out := make([]int64, n)
	var prev int64
	for i := range out {
		d, read := binary.Varint(src[pos:])
		if read <= 0 || read > 1 && src[pos+read-1] == 0 {
			return nil, 0, fmt.Errorf("%w: ts2diff value %d", ErrCorrupt, i)
		}
		pos += read
		if i == 0 {
			prev = d
		} else {
			prev += d
		}
		out[i] = prev
	}
	return out, pos, nil
}

// refBitWriter appends single bits / bit runs to a byte buffer.
type refBitWriter struct {
	buf  []byte
	nbit uint8 // bits used in the last byte (0 = last byte full/absent)
}

func (w *refBitWriter) writeBit(b uint64) {
	if w.nbit == 0 {
		w.buf = append(w.buf, 0)
		w.nbit = 8
	}
	w.nbit--
	if b != 0 {
		w.buf[len(w.buf)-1] |= 1 << w.nbit
	}
}

func (w *refBitWriter) writeBits(v uint64, n uint8) {
	for i := int8(n) - 1; i >= 0; i-- {
		w.writeBit((v >> uint8(i)) & 1)
	}
}

type refBitReader struct {
	buf  []byte
	pos  int
	nbit uint8
}

func (r *refBitReader) readBit() (uint64, error) {
	if r.pos >= len(r.buf) {
		return 0, fmt.Errorf("%w: gorilla bitstream truncated", ErrCorrupt)
	}
	if r.nbit == 0 {
		r.nbit = 8
	}
	r.nbit--
	b := uint64(r.buf[r.pos]>>r.nbit) & 1
	if r.nbit == 0 {
		r.pos++
	}
	return b, nil
}

func (r *refBitReader) readBits(n uint8) (uint64, error) {
	var v uint64
	for i := uint8(0); i < n; i++ {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | b
	}
	return v, nil
}

func refAppendGorilla(dst []byte, values []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(values)))
	if len(values) == 0 {
		return dst
	}
	w := &refBitWriter{}
	prev := math.Float64bits(values[0])
	w.writeBits(prev, 64)
	prevLead, prevTrail := uint8(65), uint8(65) // invalid: no window yet
	for _, v := range values[1:] {
		cur := math.Float64bits(v)
		x := cur ^ prev
		prev = cur
		if x == 0 {
			w.writeBit(0)
			continue
		}
		lead := uint8(bits.LeadingZeros64(x))
		trail := uint8(bits.TrailingZeros64(x))
		if lead > 31 {
			lead = 31 // 5-bit field
		}
		if prevLead <= 64 && lead >= prevLead && trail >= prevTrail {
			// Fits in the previous window.
			w.writeBit(1)
			w.writeBit(0)
			w.writeBits(x>>prevTrail, 64-prevLead-prevTrail)
			continue
		}
		sig := 64 - lead - trail
		w.writeBit(1)
		w.writeBit(1)
		w.writeBits(uint64(lead), 5)
		w.writeBits(uint64(sig-1), 6) // 1..64 stored as 0..63
		w.writeBits(x>>trail, sig)
		prevLead, prevTrail = lead, trail
	}
	dst = binary.AppendUvarint(dst, uint64(len(w.buf)))
	return append(dst, w.buf...)
}

func refDecodeGorillaPrefix(src []byte, limit int) ([]float64, int, error) {
	n, read := binary.Uvarint(src)
	if read <= 0 {
		return nil, 0, fmt.Errorf("%w: gorilla count", ErrCorrupt)
	}
	pos := read
	if n == 0 {
		return nil, pos, nil
	}
	blobLen, read := binary.Uvarint(src[pos:])
	if read <= 0 {
		return nil, 0, fmt.Errorf("%w: gorilla blob length", ErrCorrupt)
	}
	pos += read
	if uint64(len(src)-pos) < blobLen {
		return nil, 0, fmt.Errorf("%w: gorilla blob truncated", ErrCorrupt)
	}
	consumed := pos + int(blobLen)
	if k := uint64(max(limit, 0)); k < n {
		n = k
	}
	if n == 0 {
		return nil, consumed, nil
	}
	r := &refBitReader{buf: src[pos:consumed]}
	out := make([]float64, n)
	first, err := r.readBits(64)
	if err != nil {
		return nil, 0, err
	}
	prev := first
	out[0] = math.Float64frombits(first)
	var lead, trail uint8
	windowSet := false
	for i := uint64(1); i < n; i++ {
		b, err := r.readBit()
		if err != nil {
			return nil, 0, err
		}
		if b == 0 {
			out[i] = math.Float64frombits(prev)
			continue
		}
		b, err = r.readBit()
		if err != nil {
			return nil, 0, err
		}
		if b == 1 {
			l, err := r.readBits(5)
			if err != nil {
				return nil, 0, err
			}
			s, err := r.readBits(6)
			if err != nil {
				return nil, 0, err
			}
			lead = uint8(l)
			sig := uint8(s) + 1
			if int(lead)+int(sig) > 64 {
				return nil, 0, fmt.Errorf("%w: gorilla window %d+%d", ErrCorrupt, lead, sig)
			}
			trail = 64 - lead - sig
			windowSet = true
		} else if !windowSet {
			return nil, 0, fmt.Errorf("%w: gorilla reused window before defining one", ErrCorrupt)
		}
		sig := 64 - lead - trail
		v, err := r.readBits(sig)
		if err != nil {
			return nil, 0, err
		}
		prev ^= v << trail
		out[i] = math.Float64frombits(prev)
	}
	return out, consumed, nil
}

// sameDecode fails t unless got and want — a decoder's results — agree:
// the same error text, or no error and the same values bit for bit and
// the same bytes consumed.
func sameDecode[T int64 | float64](t *testing.T, what string, got []T, gotN int, gotErr error, want []T, wantN int, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if gotN != wantN || len(got) != len(want) {
		t.Fatalf("%s: %d values over %d bytes, reference %d over %d", what, len(got), gotN, len(want), wantN)
	}
	for i := range want {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			t.Fatalf("%s: value %d = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

func bitsOf[T int64 | float64](v T) uint64 {
	switch v := any(v).(type) {
	case float64:
		return math.Float64bits(v)
	default:
		return uint64(v.(int64))
	}
}

// gorillaValues turns fuzz bytes into a value column that walks every
// branch of the encoder: repeats, small XORs inside and outside the
// previous window, and raw 64-bit patterns.
func gorillaValues(data []byte) []float64 {
	var vals []float64
	prev := uint64(0)
	for i := 0; i < len(data); {
		op := data[i]
		i++
		switch op % 4 {
		case 0: // repeat
		case 1: // flip a byte's worth of bits somewhere
			if i < len(data) {
				prev ^= uint64(data[i]) << (op >> 2 % 57)
				i++
			}
		case 2: // a sensor-like step
			if i < len(data) {
				prev = math.Float64bits(math.Round((math.Float64frombits(prev)+float64(int8(data[i]))/16)*1024) / 1024)
				i++
			}
		case 3: // raw bits
			var b [8]byte
			i += copy(b[:], data[i:])
			prev = binary.LittleEndian.Uint64(b[:])
		}
		vals = append(vals, math.Float64frombits(prev))
	}
	return vals
}

func gorillaSeeds() [][]byte {
	rng := rand.New(rand.NewSource(45))
	seeds := [][]byte{nil, {0}, {3, 1, 2, 3, 4, 5, 6, 7, 8}, {2, 16, 2, 16, 0, 0, 1, 9, 2, 240}}
	for i := 0; i < 4; i++ {
		b := make([]byte, 64+rng.Intn(512))
		rng.Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzGorillaDecode decodes arbitrary bytes under arbitrary limits with
// DecodeGorillaInto and the bit-at-a-time reference.
func FuzzGorillaDecode(f *testing.F) {
	for _, s := range gorillaSeeds() {
		enc := AppendGorilla(nil, gorillaValues(s))
		for _, limit := range []int{-1, 0, 1, 5, math.MaxInt} {
			f.Add(enc, limit)
			f.Add(enc[:len(enc)/2], limit)
		}
		if len(enc) > 3 {
			mut := bytes.Clone(enc)
			mut[len(mut)/2] ^= 0x24
			f.Add(mut, math.MaxInt)
		}
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF}, math.MaxInt)
	f.Fuzz(func(t *testing.T, src []byte, limit int) {
		dst := make([]float64, 3, 8) // stale contents must not leak through
		got, gotN, gotErr := DecodeGorillaInto(dst, src, limit)
		// The reference sizes its output by the header's count before
		// decoding; where that count outruns the input's bits, it can
		// only fail (it would run out of bits), so spare it the
		// allocation and require the same verdict.
		if n, read := binary.Uvarint(src); read > 0 && min(n, uint64(max(limit, 0))) > 8*uint64(len(src)) {
			if gotErr == nil {
				t.Fatalf("count %d over %d bytes decoded", n, len(src))
			}
			return
		}
		want, wantN, wantErr := refDecodeGorillaPrefix(src, limit)
		sameDecode(t, "gorilla", got, gotN, gotErr, want, wantN, wantErr)
	})
}

// FuzzTS2DiffDecode decodes arbitrary bytes with DecodeTS2DiffInto and
// the reference.
func FuzzTS2DiffDecode(f *testing.F) {
	f.Add(AppendTS2Diff(nil, []int64{5, 6, 7, -100, 1 << 40, math.MinInt64}))
	f.Add(AppendTS2Diff(nil, []int64{0, 63, 127, 64, 0}))
	f.Add([]byte{3, 0x80, 0x80, 0x80})
	f.Add([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, src []byte) {
		got, gotN, gotErr := DecodeTS2DiffInto(make([]int64, 2, 16), src)
		want, wantN, wantErr := refDecodeTS2Diff(src)
		sameDecode(t, "ts2diff", got, gotN, gotErr, want, wantN, wantErr)
	})
}

// FuzzGorillaEncode checks AppendGorilla writes the reference's bytes,
// after a prefix and into a buffer with and without spare capacity,
// and that they decode back bit for bit.
func FuzzGorillaEncode(f *testing.F) {
	for _, s := range gorillaSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := gorillaValues(data)
		want := refAppendGorilla([]byte("hd"), vals)
		for _, dst := range [][]byte{[]byte("hd"), append(make([]byte, 0, 1<<12), "hd"...)} {
			if got := AppendGorilla(dst, vals); !bytes.Equal(got, want) {
				t.Fatalf("%d values: encoded\n%x\nreference\n%x", len(vals), got, want)
			}
		}
		got, n, err := DecodeGorilla(want[2:])
		sameDecode(t, "round trip", got, n, err, vals, len(want)-2, nil)
	})
}
