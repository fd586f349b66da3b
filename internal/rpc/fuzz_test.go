package rpc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/encoding"
	"repro/internal/engine"
	"repro/internal/query"
)

// FuzzDispatch throws arbitrary bytes at every opcode's request
// decoder (and at the handshake check): the server must answer with a
// reply or an error, never panic, and never allocate beyond what the
// frame could hold. Seeded with one valid payload per opcode.
func FuzzDispatch(f *testing.F) {
	sensor := appendString(nil, "s")
	insert := encoding.AppendBatch(nil, "s", []int64{3, 1, 2}, []float64{1, 2, 3})
	rng := binary.AppendVarint(binary.AppendVarint(bytes.Clone(sensor), 0), 100)
	agg := bytes.Clone(sensor)
	for _, v := range []int64{0, 40, 40, int64(query.Avg)} {
		agg = binary.AppendVarint(agg, v)
	}
	f.Add(OpInsert, insert)
	f.Add(OpQuery, rng)
	f.Add(OpLatest, sensor)
	f.Add(OpStats, []byte(nil))
	f.Add(OpFlush, []byte(nil))
	f.Add(OpWait, []byte(nil))
	f.Add(OpAgg, agg)
	f.Add(OpHello, helloPayload())
	// A count far beyond the frame must be refused before allocating.
	f.Add(OpInsert, append(binary.AppendUvarint(bytes.Clone(sensor), 1<<40), make([]byte, 32)...))
	// A well-formed batch with a trailing byte is refused whole.
	f.Add(OpInsert, append(bytes.Clone(insert), 0))
	// A string length that wraps int negative must not index the payload.
	f.Add(OpInsert, binary.AppendUvarint(nil, 1<<63+5))

	e := openRouter(f, engine.Config{Dir: f.TempDir(), SyncFlush: true})
	srv := NewServer(e)
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		_, _ = srv.dispatch(op, payload)
		_ = checkHello(payload, "server", "client")
	})
}

// FuzzStatsDecode feeds arbitrary bytes to the client-side decoder of
// the OpStats reply: it must return stats or an error, never panic, and
// never size the per-shard slice beyond what the payload could hold.
func FuzzStatsDecode(f *testing.F) {
	var st engine.Stats
	st.FlushCount, st.AvgFlushMillis, st.FlatSorts = 7, 2.5, 3
	f.Add(appendStatsReply(nil, st, nil))
	f.Add(appendStatsReply(nil, st, []engine.Stats{st, {}}))
	f.Add(binary.AppendUvarint(nil, 1<<40))
	f.Fuzz(func(t *testing.T, payload []byte) {
		agg, per, err := decodeStatsReply(payload)
		if err != nil {
			return
		}
		if max := len(payload) / (len(engine.StatsFields) + 1); len(per)+1 > max {
			t.Fatalf("decoded %d blocks from %d bytes (at most %d fit)", len(per)+1, len(payload), max)
		}
		// Whatever decodes survives a canonical re-encode unchanged
		// (compared as bytes: the fuzzer finds NaNs).
		canon := appendStatsReply(nil, agg, per)
		agg2, per2, err := decodeStatsReply(canon)
		if err != nil || !bytes.Equal(appendStatsReply(nil, agg2, per2), canon) {
			t.Fatalf("re-encode round trip diverged: %v", err)
		}
	})
}
