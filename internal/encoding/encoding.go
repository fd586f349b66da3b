// Package encoding implements the columnar encodings the storage
// layer uses, modeled on Apache IoTDB's codec families:
//
//   - TS2Diff: delta + zig-zag varint for sorted int64 timestamps
//     (IoTDB's TS_2DIFF family) — regular series cost ~1–2 bytes per
//     timestamp;
//   - Gorilla: XOR-based float64 compression (Facebook's Gorilla
//     scheme, used by IoTDB for floating point columns) — slowly
//     varying sensor values cost a few bits per point.
//
// All encoders append to a caller-provided buffer and all decoders
// report malformed input as errors rather than panicking: encoded
// bytes cross a disk boundary, so they are untrusted.
package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrCorrupt is wrapped by every decoder failure.
var ErrCorrupt = errors.New("encoding: corrupt data")

// --- TS2Diff (timestamps) -------------------------------------------------

// AppendTS2Diff encodes times (any int64 sequence; sorted input
// compresses best) as first value + varint deltas, appended to dst.
func AppendTS2Diff(dst []byte, times []int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(times)))
	if len(times) == 0 {
		return dst
	}
	dst = binary.AppendVarint(dst, times[0])
	prev := times[0]
	for _, t := range times[1:] {
		dst = binary.AppendVarint(dst, t-prev)
		prev = t
	}
	return dst
}

// DecodeTS2Diff decodes a sequence produced by AppendTS2Diff,
// returning the values and the number of bytes consumed.
func DecodeTS2Diff(src []byte) ([]int64, int, error) {
	n, read := binary.Uvarint(src)
	if read <= 0 {
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
		if read <= 0 {
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

// --- Gorilla (float64 values) ----------------------------------------------

// bitWriter appends single bits / bit runs to a byte buffer.
type bitWriter struct {
	buf  []byte
	nbit uint8 // bits used in the last byte (0 = last byte full/absent)
}

func (w *bitWriter) writeBit(b uint64) {
	if w.nbit == 0 {
		w.buf = append(w.buf, 0)
		w.nbit = 8
	}
	w.nbit--
	if b != 0 {
		w.buf[len(w.buf)-1] |= 1 << w.nbit
	}
}

func (w *bitWriter) writeBits(v uint64, n uint8) {
	for i := int8(n) - 1; i >= 0; i-- {
		w.writeBit((v >> uint8(i)) & 1)
	}
}

type bitReader struct {
	buf  []byte
	pos  int
	nbit uint8
}

func (r *bitReader) readBit() (uint64, error) {
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

func (r *bitReader) readBits(n uint8) (uint64, error) {
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

// AppendGorilla encodes values with the Gorilla XOR scheme, appended
// to dst: the first value raw, then per value the XOR with its
// predecessor — '0' if identical, '10' + reuse of the previous
// leading/trailing window, '11' + 5-bit leading count + 6-bit length +
// the meaningful bits otherwise.
func AppendGorilla(dst []byte, values []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(values)))
	if len(values) == 0 {
		return dst
	}
	w := &bitWriter{}
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

// DecodeGorilla decodes a sequence produced by AppendGorilla,
// returning the values and the number of bytes consumed.
func DecodeGorilla(src []byte) ([]float64, int, error) {
	return DecodeGorillaPrefix(src, math.MaxInt)
}

// DecodeGorillaPrefix is DecodeGorilla stopped after the first limit
// values. The XOR chain can only be decoded from its head, so a reader
// that wants no more than a prefix saves the cost of the tail; the
// bytes consumed still span the whole sequence.
func DecodeGorillaPrefix(src []byte, limit int) ([]float64, int, error) {
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
	r := &bitReader{buf: src[pos:consumed]}
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

// --- Plain (float64) ---------------------------------------------------------

// AppendPlainFloat64 stores values as raw little-endian bits; the
// fallback when Gorilla would not compress (e.g. white noise).
func AppendPlainFloat64(dst []byte, values []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(values)))
	var b [8]byte
	for _, v := range values {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		dst = append(dst, b[:]...)
	}
	return dst
}

// DecodePlainFloat64 decodes a sequence produced by
// AppendPlainFloat64.
func DecodePlainFloat64(src []byte) ([]float64, int, error) {
	n, read := binary.Uvarint(src)
	if read <= 0 {
		return nil, 0, fmt.Errorf("%w: plain count", ErrCorrupt)
	}
	pos := read
	if len(src)-pos < int(n)*8 {
		return nil, 0, fmt.Errorf("%w: plain values truncated", ErrCorrupt)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[pos:]))
		pos += 8
	}
	return out, pos, nil
}
