package rpc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

// rawDial opens a connection that skips the Client handshake, so tests
// can speak arbitrary first frames at the server.
func rawDial(t *testing.T, addr string) (net.Conn, *bufio.Reader, *bufio.Writer) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewReader(conn), bufio.NewWriter(conn)
}

func rawCall(t *testing.T, br *bufio.Reader, bw *bufio.Writer, op byte, payload []byte) (byte, []byte) {
	t.Helper()
	if err := writeFrame(bw, op, payload); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	status, resp, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	return status, resp
}

// TestHandshakeRequiredFirst: a client that opens with any opcode other
// than OpHello gets a descriptive error on its
// first exchange, and the server drops the connection.
func TestHandshakeRequiredFirst(t *testing.T) {
	_, addr := startServer(t)
	_, br, bw := rawDial(t, addr)
	status, resp := rawCall(t, br, bw, OpStats, nil)
	if status == 0 {
		t.Fatal("pre-handshake OpStats accepted")
	}
	if !strings.Contains(string(resp), "handshake required") {
		t.Fatalf("error not descriptive: %q", resp)
	}
	// The server hangs up after a failed handshake: the next read sees
	// EOF, not another response.
	if err := writeFrame(bw, OpStats, nil); err == nil {
		bw.Flush()
	}
	if _, _, err := readFrame(br); !errors.Is(err, io.EOF) && err == nil {
		t.Fatal("connection survived a failed handshake")
	}
}

// TestHandshakeBadMagic: a hello carrying the wrong magic (some other
// protocol probing the port) is refused and the connection dropped.
func TestHandshakeBadMagic(t *testing.T) {
	_, addr := startServer(t)
	_, br, bw := rawDial(t, addr)
	status, resp := rawCall(t, br, bw, OpHello, []byte{'H', 'T', 'T', 'P', 1})
	if status == 0 {
		t.Fatal("bad magic accepted")
	}
	if !strings.Contains(string(resp), "magic") {
		t.Fatalf("error not descriptive: %q", resp)
	}
}

// TestHandshakeRejectsShortAndZero: truncated hello payloads and
// version 0 are refused.
func TestHandshakeRejectsShortAndZero(t *testing.T) {
	_, addr := startServer(t)
	for _, payload := range [][]byte{nil, protocolMagic[:3], append(append([]byte(nil), protocolMagic[:]...), 0)} {
		_, br, bw := rawDial(t, addr)
		if status, _ := rawCall(t, br, bw, OpHello, payload); status == 0 {
			t.Fatalf("hello payload %v accepted", payload)
		}
	}
}

// TestHandshakeVersionMismatch: the protocol is exactly
// ProtocolVersion. A raw peer announcing the version below or above is
// refused with a decodable error naming both versions and then hung up
// on; Dial against a server announcing another version fails the same
// way instead of misparsing later frames.
func TestHandshakeVersionMismatch(t *testing.T) {
	_, addr := startServer(t)
	for _, v := range []byte{ProtocolVersion - 1, ProtocolVersion + 1} {
		bothVersions := []string{fmt.Sprintf("version %d", ProtocolVersion), fmt.Sprintf("version %d", v)}

		_, br, bw := rawDial(t, addr)
		status, resp := rawCall(t, br, bw, OpHello, append(protocolMagic[:4:4], v))
		if status != StatusError {
			t.Fatalf("client version %d: hello status = %d, want StatusError", v, status)
		}
		for _, want := range bothVersions {
			if !strings.Contains(string(resp), want) {
				t.Fatalf("client version %d: refusal %q does not name %q", v, resp, want)
			}
		}
		if _, _, err := readFrame(br); !errors.Is(err, io.EOF) {
			t.Fatalf("client version %d: connection not closed after refusal: %v", v, err)
		}

		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { // a server of another version: accepts any hello, announces v
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			if _, _, err := readFrame(conn); err == nil {
				writeFrame(conn, StatusOK, append(protocolMagic[:4:4], v))
			}
		}()
		c, err := Dial(ln.Addr().String())
		ln.Close()
		if err == nil {
			c.Close()
			t.Fatalf("Dial accepted a version-%d server", v)
		}
		for _, want := range bothVersions {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("server version %d: Dial error %q does not name %q", v, err, want)
			}
		}
	}
}

// fillStats sets every field of an engine.Stats to a distinct non-zero
// value derived from seed, by reflection — so a field added to the
// struct later is covered without editing this test. Signs alternate to
// exercise negative varints.
func fillStats(t *testing.T, seed int) engine.Stats {
	t.Helper()
	var st engine.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		x := int64(seed*1000 + i + 1)
		if i%2 == 1 {
			x = -x
		}
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(x)
		case reflect.Float64:
			f.SetFloat(float64(x) + 0.5)
		default:
			t.Fatalf("engine.Stats.%s: kind %s not handled", v.Type().Field(i).Name, f.Kind())
		}
	}
	return st
}

// statsBackend serves fixed aggregate and per-shard stats.
type statsBackend struct {
	blockingBackend
	agg engine.Stats
	per []engine.Stats
}

func (b *statsBackend) StatsAll() (engine.Stats, []engine.Stats) { return b.agg, b.per }

// TestStatsRoundTrip: every field of engine.Stats survives the wire
// through a real server, for a 1-shard backend (aggregate plus one
// block) and for a 3-shard backend (aggregate plus three distinct
// blocks). The server
// overlays its own front-end counters onto the aggregate, so the
// aggregate is compared with that same overlay applied to both sides;
// the per-shard blocks are compared as sent.
func TestStatsRoundTrip(t *testing.T) {
	agg := fillStats(t, 1)
	for name, shards := range map[string][]engine.Stats{
		"1-shard": {fillStats(t, 2)},
		"3-shard": {fillStats(t, 2), fillStats(t, 3), fillStats(t, 4)},
	} {
		t.Run(name, func(t *testing.T) {
			backend := &statsBackend{agg: agg, per: shards}
			srv := NewServer(backend)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			got, per, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if got.PipelinedConns != 1 || got.IngestQueueCap == 0 {
				t.Fatalf("front-end overlay missing from the aggregate: %+v", got)
			}
			overlaid := func(st engine.Stats) engine.Stats {
				srv.queue.Stats().Overlay(&st)
				st.PipelinedConns = srv.pipelinedConns.Load()
				return st
			}
			if g, w := overlaid(got), overlaid(agg); g != w {
				t.Fatalf("aggregate:\n got %+v\nwant %+v", g, w)
			}
			if !reflect.DeepEqual(per, shards) {
				t.Fatalf("per-shard:\n got %+v\nwant %+v", per, shards)
			}
		})
	}
}
