// Package rpc provides the client/server wire layer that lets the
// benchmark drive the storage engine over TCP, the way IoTDB-benchmark
// drives an IoTDB server (Section VI-A2). There is exactly one protocol,
// ProtocolVersion; peers announcing any other version are refused.
//
// A connection opens with one untagged exchange, the handshake:
//
//	hello: uint32 length | OpHello  | magic "GTSD" | version byte
//	reply: uint32 length | StatusOK | magic "GTSD" | version byte
//
// Either side seeing a wrong magic or a version other than its own
// fails the handshake with an error naming both versions (the server
// answers StatusError + text first, so the refusal is decodable) and
// closes. Every later frame carries a client-chosen tag the server
// echoes, so many requests pipeline on one connection and are answered
// out of order:
//
//	request:  uint32 length | byte opcode | uint32 tag | payload
//	response: uint32 length | byte status | uint32 tag | payload
//
// Integers are little-endian; payloads use uvarint-prefixed strings,
// varint timestamps and float64 bits. A batch of points travels in one
// encoding: the OpInsert payload and the OpQuery reply are each one
// encoding.AppendBatch record (uvarint name length, sensor, TS2Diff
// times, plain float64 values), the same bytes as the payload of the
// WAL record the engine logs for an insert. StatusError carries the
// error text. StatusOverloaded means the bounded dispatch queue (or the
// connection's in-flight budget) was full: the request was NOT
// executed and the payload is a uvarint retry-after hint in ms.
//
// The OpStats reply is uvarint nShards (at least one: the server fronts
// the shard router) followed by 1+nShards stats blocks (aggregate
// first). A block is a uvarint field count, then every field of
// engine.Stats in declaration order — ints as varints, floats as 8
// bytes — so a new Stats field needs no edit here.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"time"

	"repro/internal/engine"
)

// Opcodes.
const (
	OpInsert byte = 1 // batch record (encoding.AppendBatch) -> empty
	OpQuery  byte = 2 // sensor, minT, maxT -> batch record of the sensor's points
	OpLatest byte = 3 // sensor -> bool, time
	OpStats  byte = 4 // -> uvarint shard count, aggregate stats block, shard stats blocks
	OpFlush  byte = 5 // force flush
	OpWait   byte = 6 // wait for in-flight background flushes
	OpAgg    byte = 7 // sensor, startT, endT, window, agg -> windows
	OpHello  byte = 8 // magic, version -> magic, version (handshake only, untagged)
)

// ProtocolVersion is the one version this build speaks and accepts.
// Bump it when any frame or payload changes shape: the handshake then
// refuses the mixed pair instead of letting it misparse.
const ProtocolVersion = 11

// Response status bytes.
const (
	StatusOK         byte = 0
	StatusError      byte = 1
	StatusOverloaded byte = 2
)

// protocolMagic opens every handshake payload. Four printable bytes so
// an accidental connection from an unrelated protocol is rejected with
// a clear error rather than a frame-length explosion.
var protocolMagic = [4]byte{'G', 'T', 'S', 'D'}

// helloPayload is what both sides announce in the handshake.
func helloPayload() []byte {
	return append(protocolMagic[:4:4], ProtocolVersion) // cap 4: append copies
}

// checkHello validates the peer's handshake payload. self and peer
// name the two roles ("server", "client") for the error text.
func checkHello(payload []byte, self, peer string) error {
	if len(payload) < 5 {
		return fmt.Errorf("rpc: short handshake payload (%d bytes)", len(payload))
	}
	if string(payload[:4]) != string(protocolMagic[:]) {
		return fmt.Errorf("rpc: bad handshake magic %q (not a tsdb %s?)", payload[:4], peer)
	}
	if payload[4] != ProtocolVersion {
		return fmt.Errorf("rpc: protocol version mismatch: %s speaks version %d, %s announced version %d",
			self, ProtocolVersion, peer, payload[4])
	}
	return nil
}

// MaxFrame bounds a frame to keep a malformed peer from forcing a
// giant allocation. 16 MiB fits > one million points per batch.
const MaxFrame = 16 << 20

// ErrRemote wraps an error string returned by the server.
var ErrRemote = errors.New("rpc: remote error")

// ErrOverloaded is the sentinel behind every overload rejection: the
// server's bounded dispatch queue was full and the request was NOT
// executed, so retrying is always safe (including writes). Check with
// errors.Is; errors.As against *OverloadedError recovers the server's
// retry-after hint.
var ErrOverloaded = errors.New("rpc: server overloaded")

// OverloadedError carries the server's retry-after hint alongside the
// ErrOverloaded sentinel.
type OverloadedError struct {
	// RetryAfter is the server's estimate of when queue capacity is
	// likely back — a hint, not a guarantee.
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("rpc: server overloaded; retry after %v", e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) hold.
func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// writeFrame sends one untagged length-prefixed frame. Only the
// handshake exchange is untagged.
func writeFrame(w io.Writer, kind byte, payload []byte) error {
	var hdr [5]byte
	if len(payload)+1 > MaxFrame {
		return fmt.Errorf("rpc: frame too large: %d", len(payload))
	}
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = kind
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one untagged frame, returning its kind byte and
// payload.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("rpc: invalid frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// taggedOverhead is what a tagged frame adds to its payload inside the
// length prefix: the kind byte and the 4-byte tag.
const taggedOverhead = 5

// appendTaggedHeader encodes the header of a tagged frame carrying n
// payload bytes: length, kind byte, 4-byte little-endian tag.
func appendTaggedHeader(b []byte, kind byte, tag uint32, n int) ([]byte, error) {
	if n+taggedOverhead > MaxFrame {
		return b, fmt.Errorf("rpc: frame too large: %d", n)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(n+taggedOverhead))
	b = append(b, kind)
	return binary.LittleEndian.AppendUint32(b, tag), nil
}

// appendTaggedFrame encodes one whole tagged frame into b, for senders
// that batch frames before one Write.
func appendTaggedFrame(b []byte, kind byte, tag uint32, payload []byte) ([]byte, error) {
	b, err := appendTaggedHeader(b, kind, tag, len(payload))
	if err != nil {
		return b, err
	}
	return append(b, payload...), nil
}

// writeTaggedFrame sends the same wire bytes without copying the
// payload.
func writeTaggedFrame(w io.Writer, kind byte, tag uint32, payload []byte) error {
	var hdr [4 + taggedOverhead]byte
	h, err := appendTaggedHeader(hdr[:0], kind, tag, len(payload))
	if err != nil {
		return err
	}
	if _, err := w.Write(h); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// readTaggedFrame reads one tagged frame, returning its kind byte, tag
// and payload.
func readTaggedFrame(r io.Reader) (byte, uint32, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < taggedOverhead || n > MaxFrame {
		return 0, 0, nil, fmt.Errorf("rpc: invalid tagged frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, 0, nil, err
	}
	return buf[0], binary.LittleEndian.Uint32(buf[1:5]), buf[5:], nil
}

// encodeOverloadPayload/decodeOverloadPayload carry the retry-after
// hint of a StatusOverloaded response as uvarint milliseconds.
func encodeOverloadPayload(hint time.Duration) []byte {
	ms := hint.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	return binary.AppendUvarint(nil, uint64(ms))
}

func decodeOverloadPayload(payload []byte) *OverloadedError {
	p := &payloadReader{b: payload}
	ms := p.uvarint()
	if p.err != nil || ms == 0 {
		ms = 50 // malformed hint: fall back to a sane default
	}
	return &OverloadedError{RetryAfter: time.Duration(ms) * time.Millisecond}
}

// Payload encoding helpers.

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat64(b []byte, f float64) []byte {
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], math.Float64bits(f))
	return append(b, v[:]...)
}

// payloadReader decodes the helpers above straight from its slice. The
// first failure sticks in err and every later read returns zero, so a
// decoder reads all its fields and then checks err once.
type payloadReader struct {
	b   []byte
	pos int
	err error
}

var errShortPayload = errors.New("rpc: truncated payload or overflowing varint")

// rest returns the undecoded bytes, none once a read has failed.
func (p *payloadReader) rest() []byte {
	if p.err != nil {
		return nil
	}
	return p.b[p.pos:]
}

// advance consumes a varint binary decoded as n bytes from rest; n <= 0
// means it was truncated or overflowed.
func (p *payloadReader) advance(n int) {
	if n <= 0 && p.err == nil {
		p.err = errShortPayload
	}
	p.pos += max(n, 0)
}

func (p *payloadReader) varint() int64 {
	v, n := binary.Varint(p.rest())
	p.advance(n)
	return v
}

func (p *payloadReader) uvarint() uint64 {
	v, n := binary.Uvarint(p.rest())
	p.advance(n)
	return v
}

// bytes consumes the next n bytes (nil when fewer remain).
func (p *payloadReader) bytes(n uint64) []byte {
	r := p.rest()
	if n > uint64(len(r)) { // compared unsigned: a huge n must not wrap negative
		p.advance(0)
		return nil
	}
	p.pos += int(n)
	return r[:n]
}

func (p *payloadReader) str() string { return string(p.bytes(p.uvarint())) }

func (p *payloadReader) float64() float64 {
	if b := p.bytes(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// remaining reports how many undecoded payload bytes are left.
func (p *payloadReader) remaining() int { return len(p.b) - p.pos }

// appendStats encodes one stats block: a uvarint field count, then
// every field of st in engine.StatsFields order — floats as 8
// little-endian bytes, ints as varints.
func appendStats(b []byte, st engine.Stats) []byte {
	v := reflect.ValueOf(st)
	b = binary.AppendUvarint(b, uint64(len(engine.StatsFields)))
	for i, f := range engine.StatsFields {
		if f.Kind == reflect.Float64 {
			b = appendFloat64(b, v.Field(i).Float())
		} else {
			b = binary.AppendVarint(b, v.Field(i).Int())
		}
	}
	return b
}

// stats decodes one stats block (the inverse of appendStats). A field
// count other than this build's means the peer's engine.Stats differs
// — a build skew ProtocolVersion should have caught — and is refused
// rather than misread.
func (p *payloadReader) stats() engine.Stats {
	var st engine.Stats
	if n := p.uvarint(); p.err == nil && n != uint64(len(engine.StatsFields)) {
		p.err = fmt.Errorf("rpc: stats block has %d fields, this build has %d", n, len(engine.StatsFields))
	}
	v := reflect.ValueOf(&st).Elem()
	for i, sf := range engine.StatsFields {
		if sf.Kind == reflect.Float64 {
			v.Field(i).SetFloat(p.float64())
		} else {
			v.Field(i).SetInt(p.varint())
		}
	}
	return st
}

// appendStatsReply encodes the OpStats reply: uvarint shard count, the
// aggregate block, then one block per shard.
func appendStatsReply(b []byte, agg engine.Stats, per []engine.Stats) []byte {
	b = binary.AppendUvarint(b, uint64(len(per)))
	b = appendStats(b, agg)
	for _, st := range per {
		b = appendStats(b, st)
	}
	return b
}

// decodeStatsReply is the inverse of appendStatsReply.
func decodeStatsReply(payload []byte) (engine.Stats, []engine.Stats, error) {
	p := &payloadReader{b: payload}
	n := p.uvarint()
	// A block spends at least one byte per field plus its count; reject
	// shard counts the frame cannot hold before allocating.
	if n > uint64(p.remaining())/uint64(len(engine.StatsFields)+1) {
		return engine.Stats{}, nil, fmt.Errorf("rpc: shard count %d exceeds frame", n)
	}
	agg := p.stats()
	per := make([]engine.Stats, n)
	for i := range per {
		per[i] = p.stats()
	}
	if p.err != nil {
		return engine.Stats{}, nil, p.err
	}
	return agg, per, nil
}
