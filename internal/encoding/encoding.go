// Package encoding implements the columnar encodings the storage
// layer uses, modeled on Apache IoTDB's codec families:
//
//   - TS2Diff: delta + zig-zag varint for sorted int64 timestamps
//     (IoTDB's TS_2DIFF family) — regular series cost ~1–2 bytes per
//     timestamp;
//   - Gorilla: XOR-based float64 compression (Facebook's Gorilla
//     scheme, used by IoTDB for floating point columns) — slowly
//     varying sensor values cost a few bits per point;
//   - Batch: a sensor's name, TS2Diff times and plain float64 values,
//     the one record a batch of points takes outside chunk files (a
//     WAL record, an RPC insert, an RPC query reply).
//
// All encoders append to a caller-provided buffer. Every decoder has an
// Into form that decodes into a caller's column from [:0], allocating
// only when the column's capacity is short, so a reader decoding block
// after block into the same columns allocates nothing once they are
// big enough. Decoders report malformed input as errors rather than
// panicking: encoded bytes cross a disk or network boundary, so they
// are untrusted. The TS2Diff, plain and batch decoders refuse overlong
// varints: what they accept is what their encoder writes.
//
// Gorilla's bit stream moves a 64-bit word at a time. The writer packs
// bits into an accumulator and stores it a whole big-endian word at a
// time into a blob sized once up front; the reader refills its
// accumulator with one big-endian load while eight bytes remain, and
// byte by byte in the tail. A value then costs a few shifts, not a call
// and a bounds check per bit. The bytes are those a bit-at-a-time
// codec writes: most significant bit first, the last byte zero-padded.
package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// ErrCorrupt is wrapped by every decoder failure.
var ErrCorrupt = errors.New("encoding: corrupt data")

// uvarint is binary.Uvarint refusing an overlong encoding (a final zero
// byte after the first), reporting it like a truncated one.
func uvarint(src []byte) (uint64, int) {
	v, n := binary.Uvarint(src)
	if n > 1 && src[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// column returns dst resized to n, reusing its backing array when the
// capacity suffices.
func column[T any](dst []T, n int) []T {
	if cap(dst) < n {
		return make([]T, n)
	}
	return dst[:n]
}

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
func DecodeTS2Diff(src []byte) ([]int64, int, error) { return DecodeTS2DiffInto(nil, src) }

// DecodeTS2DiffInto is DecodeTS2Diff decoding into dst[:0].
func DecodeTS2DiffInto(dst []int64, src []byte) ([]int64, int, error) {
	n, read := uvarint(src)
	if read <= 0 {
		return nil, 0, fmt.Errorf("%w: ts2diff count", ErrCorrupt)
	}
	pos := read
	if n > uint64(len(src)) { // cheap sanity bound: ≥1 byte per value
		return nil, 0, fmt.Errorf("%w: ts2diff count %d exceeds input", ErrCorrupt, n)
	}
	out := column(dst, int(n))
	var prev int64
	for i := range out {
		// A delta in [-64, 63] is one byte: zig-zag it inline.
		if pos < len(src) && src[pos] < 0x80 {
			b := src[pos]
			prev += int64(b>>1) ^ -int64(b&1)
			pos++
		} else {
			d, read := binary.Varint(src[pos:])
			if read <= 0 || src[pos+read-1] == 0 { // truncated or overlong
				return nil, 0, fmt.Errorf("%w: ts2diff value %d", ErrCorrupt, i)
			}
			pos += read
			prev += d
		}
		out[i] = prev
	}
	return out, pos, nil
}

// --- Gorilla (float64 values) ----------------------------------------------

// bitWriter packs bits, most significant first, into buf, which the
// caller sizes for everything written plus 8 bytes of slack: whole
// words are stored into it in place, and it never grows.
type bitWriter struct {
	buf []byte
	off int    // bytes of buf stored so far
	acc uint64 // pending bits, left-aligned
	n   uint   // pending bit count, < 64
}

// writeBits writes the low k bits of v; k <= 64 and v < 1<<k.
func (w *bitWriter) writeBits(v uint64, k uint) {
	if free := 64 - w.n; k < free {
		w.acc |= v << (free - k)
		w.n += k
		return
	}
	rest := k - (64 - w.n) // bits of v left over once acc is full
	binary.BigEndian.PutUint64(w.buf[w.off:], w.acc|v>>rest)
	w.off += 8
	w.n = rest
	w.acc = v << (64 - rest) // 0 when rest is 0
}

// finish stores the pending bits, zero-padded to a byte, and returns
// the bytes written.
func (w *bitWriter) finish() []byte {
	binary.BigEndian.PutUint64(w.buf[w.off:], w.acc)
	return w.buf[:w.off+int(w.n+7)/8]
}

// bitReader reads bits, most significant first, from buf.
type bitReader struct {
	buf []byte
	pos int    // next byte of buf not yet counted in n
	acc uint64 // unread bits, left-aligned; the bits below the top n are 0 or already those of buf[pos:]
	n   uint   // unread bits in acc
}

// refill tops acc up to at least 57 unread bits, or to every bit left.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.buf) {
		r.acc |= binary.BigEndian.Uint64(r.buf[r.pos:]) >> r.n
		k := (64 - r.n) >> 3 // whole bytes that fit below the unread bits
		r.pos += int(k)
		r.n += k << 3
		return
	}
	for r.n <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << (56 - r.n)
		r.pos++
		r.n += 8
	}
}

// readBits reads k <= 57 bits, reporting false when fewer remain.
func (r *bitReader) readBits(k uint) (uint64, bool) {
	if r.n < k {
		r.refill()
		if r.n < k {
			return 0, false
		}
	}
	v := r.acc >> (64 - k) // 0 when k is 0
	r.acc <<= k
	r.n -= k
	return v, true
}

// readWide reads k <= 64 bits.
func (r *bitReader) readWide(k uint) (uint64, bool) {
	if k <= 57 {
		return r.readBits(k)
	}
	hi, ok := r.readBits(k - 32)
	lo, ok2 := r.readBits(32)
	return hi<<32 | lo, ok && ok2
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
	// The blob holds 64 bits for the first value and at most 13+64 for
	// each later one. Reserve that bound and the widest varint its
	// length can need, so dst grows at most once.
	maxBlob := 8 + (77*(len(values)-1)+7)/8
	var hdr [binary.MaxVarintLen64]byte
	hdrMax := binary.PutUvarint(hdr[:], uint64(maxBlob))
	start := len(dst)
	dst = slices.Grow(dst, hdrMax+maxBlob+8)
	out := dst[:start+hdrMax+maxBlob+8]
	w := bitWriter{buf: out[start+hdrMax:]}
	prev := math.Float64bits(values[0])
	w.writeBits(prev, 64)
	prevLead, prevTrail := uint(65), uint(65) // invalid: no window yet
	for _, v := range values[1:] {
		cur := math.Float64bits(v)
		x := cur ^ prev
		prev = cur
		if x == 0 {
			w.writeBits(0, 1)
			continue
		}
		lead := uint(bits.LeadingZeros64(x))
		trail := uint(bits.TrailingZeros64(x))
		if lead > 31 {
			lead = 31 // 5-bit field
		}
		if prevLead <= 64 && lead >= prevLead && trail >= prevTrail {
			// Fits in the previous window.
			w.writeBits(0b10, 2)
			w.writeBits(x>>prevTrail, 64-prevLead-prevTrail)
			continue
		}
		sig := 64 - lead - trail
		w.writeBits(uint64(0b11<<11|lead<<6|(sig-1)), 13) // sig 1..64 stored as 0..63
		w.writeBits(x>>trail, sig)
		prevLead, prevTrail = lead, trail
	}
	blob := w.finish()
	// Write the blob's real length; when its varint is shorter than
	// the reserved one, slide the blob down to close the gap.
	h := binary.PutUvarint(out[start:], uint64(len(blob)))
	if h < hdrMax {
		copy(out[start+h:], blob)
	}
	return out[:start+h+len(blob)]
}

// DecodeGorilla decodes a sequence produced by AppendGorilla,
// returning the values and the number of bytes consumed.
func DecodeGorilla(src []byte) ([]float64, int, error) {
	return DecodeGorillaInto(nil, src, math.MaxInt)
}

var errGorillaTruncated = fmt.Errorf("%w: gorilla bitstream truncated", ErrCorrupt)

// DecodeGorillaInto is DecodeGorilla decoding into dst[:0] and stopped
// after the first limit values. The XOR chain can only be decoded from
// its head, so a reader that wants no more than a prefix saves the cost
// of the tail; the bytes consumed still span the whole sequence.
func DecodeGorillaInto(dst []float64, src []byte, limit int) ([]float64, int, error) {
	n, read := binary.Uvarint(src)
	if read <= 0 {
		return nil, 0, fmt.Errorf("%w: gorilla count", ErrCorrupt)
	}
	pos := read
	if n == 0 {
		return dst[:0], pos, nil
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
		return dst[:0], consumed, nil
	}
	// The first value costs 64 bits and each later one at least one, so
	// no more than fit values decode from the blob. Size the column by
	// that, not by a count a corrupt header may inflate: decoding fit
	// values and wanting more fails on the bit after the last.
	blob := src[pos:consumed]
	fit := uint64(0)
	if b := 8 * uint64(len(blob)); b >= 64 {
		fit = b - 63
	}
	out := column(dst, int(min(n, fit)))
	if err := decodeGorilla(out, blob); err != nil {
		return nil, 0, err
	}
	if uint64(len(out)) < n {
		return nil, 0, errGorillaTruncated
	}
	return out, consumed, nil
}

// decodeGorilla fills out with the head of the XOR chain in blob.
func decodeGorilla(out []float64, blob []byte) error {
	if len(out) == 0 {
		return nil
	}
	r := bitReader{buf: blob}
	prev, ok := r.readWide(64)
	if !ok {
		return errGorillaTruncated
	}
	out[0] = math.Float64frombits(prev)
	var lead, trail uint
	windowSet := false
	for i := 1; i < len(out); i++ {
		b, ok := r.readBits(1)
		if !ok {
			return errGorillaTruncated
		}
		if b == 0 {
			out[i] = math.Float64frombits(prev)
			continue
		}
		if b, ok = r.readBits(1); !ok {
			return errGorillaTruncated
		}
		if b == 1 {
			h, ok := r.readBits(11) // 5-bit lead, 6-bit length - 1
			if !ok {
				return errGorillaTruncated
			}
			lead = uint(h >> 6)
			sig := uint(h&63) + 1
			if lead+sig > 64 {
				return fmt.Errorf("%w: gorilla window %d+%d", ErrCorrupt, lead, sig)
			}
			trail = 64 - lead - sig
			windowSet = true
		} else if !windowSet {
			return fmt.Errorf("%w: gorilla reused window before defining one", ErrCorrupt)
		}
		v, ok := r.readWide(64 - lead - trail)
		if !ok {
			return errGorillaTruncated
		}
		prev ^= v << trail
		out[i] = math.Float64frombits(prev)
	}
	return nil
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

// DecodePlainFloat64Into decodes a sequence produced by
// AppendPlainFloat64 into dst[:0], returning the values and the number
// of bytes consumed.
func DecodePlainFloat64Into(dst []float64, src []byte) ([]float64, int, error) {
	n, read := uvarint(src)
	if read <= 0 {
		return nil, 0, fmt.Errorf("%w: plain count", ErrCorrupt)
	}
	pos := read
	if n > uint64(len(src)-pos)/8 {
		return nil, 0, fmt.Errorf("%w: plain values truncated", ErrCorrupt)
	}
	out := column(dst, int(n))
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[pos:]))
		pos += 8
	}
	return out, pos, nil
}

// --- Batch (one sensor's column pair) -------------------------------------

// AppendBatch appends one sensor's batch to dst as uvarint len(sensor)
// | sensor | TS2Diff(times) | Plain(values), growing dst at most once.
// The caller ensures len(times) == len(values).
func AppendBatch(dst []byte, sensor string, times []int64, values []float64) []byte {
	dst = slices.Grow(dst, len(sensor)+3*binary.MaxVarintLen64+(binary.MaxVarintLen64+8)*len(times))
	dst = append(binary.AppendUvarint(dst, uint64(len(sensor))), sensor...)
	return AppendPlainFloat64(AppendTS2Diff(dst, times), values)
}

// DecodeBatch decodes an AppendBatch record into fresh columns. All of
// src must be the record, and the columns equally long. A point count
// past what the rest of src holds at 9 bytes a point (a one-byte time
// delta and the value), or a value count other than the time count, is
// refused before its column is allocated.
func DecodeBatch(src []byte) (sensor string, times []int64, values []float64, err error) {
	nameLen, pos := uvarint(src)
	if pos <= 0 || uint64(len(src)-pos) < nameLen {
		return "", nil, nil, fmt.Errorf("%w: batch sensor name", ErrCorrupt)
	}
	sensor = string(src[pos : pos+int(nameLen)])
	pos += int(nameLen)
	if n, _ := uvarint(src[pos:]); n > uint64(len(src)-pos)/9 {
		return "", nil, nil, fmt.Errorf("%w: batch point count %d exceeds input", ErrCorrupt, n)
	}
	times, read, err := DecodeTS2DiffInto(nil, src[pos:])
	if err != nil {
		return "", nil, nil, err
	}
	pos += read
	if n, _ := uvarint(src[pos:]); n != uint64(len(times)) {
		return "", nil, nil, fmt.Errorf("%w: batch has %d times, not as many values", ErrCorrupt, len(times))
	}
	if values, read, err = DecodePlainFloat64Into(nil, src[pos:]); err != nil {
		return "", nil, nil, err
	}
	if pos += read; pos != len(src) {
		return "", nil, nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrCorrupt, len(src)-pos)
	}
	return sensor, times, values, nil
}
