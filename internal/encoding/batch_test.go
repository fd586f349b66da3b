package encoding

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func TestBatchRoundTrip(t *testing.T) {
	cases := []struct {
		sensor string
		times  []int64
		values []float64
	}{
		{"", nil, nil},
		{"s", []int64{7}, []float64{1.5}},
		{"root.sg.d1.s1", []int64{30, 10, 20, 20, -5}, []float64{1, 2, 3, 4, 5}},
		{"edge", []int64{math.MaxInt64, 0, math.MinInt64}, []float64{math.NaN(), math.Inf(-1), -0.0}},
	}
	for _, c := range cases {
		enc := AppendBatch([]byte("hd"), c.sensor, c.times, c.values)[2:]
		// The layout is the three codecs back to back.
		want := binary.AppendUvarint(nil, uint64(len(c.sensor)))
		want = AppendPlainFloat64(AppendTS2Diff(append(want, c.sensor...), c.times), c.values)
		if !bytes.Equal(enc, want) {
			t.Fatalf("%q: encoded %x, want %x", c.sensor, enc, want)
		}
		sensor, times, values, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("%q: %v", c.sensor, err)
		}
		if sensor != c.sensor || len(times) != len(c.times) || len(values) != len(c.values) {
			t.Fatalf("%q: decoded %q with %d times, %d values", c.sensor, sensor, len(times), len(values))
		}
		for i := range times {
			if times[i] != c.times[i] || math.Float64bits(values[i]) != math.Float64bits(c.values[i]) {
				t.Fatalf("%q: point %d decoded as (%d, %v)", c.sensor, i, times[i], values[i])
			}
		}
	}
}

// batchRejects are inputs DecodeBatch must refuse: each breaks one rule.
func batchRejects() map[string][]byte {
	ok := AppendBatch(nil, "s", []int64{1, 2, 3}, []float64{1, 2, 3})
	bounded := binary.AppendUvarint(append(binary.AppendUvarint(nil, 1), 's'), 1<<40)
	overlong := append([]byte{0x81, 0x00}, ok[1:]...) // name length 1 in two bytes
	fewer := binary.AppendUvarint(nil, 1)
	fewer = AppendPlainFloat64(AppendTS2Diff(append(fewer, 's'), []int64{1, 2}), []float64{1})
	return map[string][]byte{
		"empty":           nil,
		"short name":      {5, 's'},
		"count past 9B":   append(bounded, make([]byte, 64)...),
		"trailing byte":   append(bytes.Clone(ok), 0),
		"truncated":       ok[:len(ok)-1],
		"overlong varint": overlong,
		"fewer values":    fewer,
	}
}

func TestDecodeBatchRejects(t *testing.T) {
	for name, src := range batchRejects() {
		if _, _, _, err := DecodeBatch(src); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeBatch = %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzBatch decodes arbitrary bytes with DecodeBatch: it must never
// panic, never return columns longer than the input holds at 9 bytes a
// point, and whatever it accepts must re-encode to exactly the input.
func FuzzBatch(f *testing.F) {
	// A WAL record's payload and an RPC insert's are one encoding; seed
	// both shapes: sorted ticks, and a disordered batch.
	f.Add(AppendBatch(nil, "root.sg.d1.s1", []int64{1000, 1001, 1002, 1003}, []float64{20.5, 20.5, 20.75, 21}))
	f.Add(AppendBatch(nil, "s", []int64{3, 1, 2, math.MaxInt64}, []float64{1, math.NaN(), 3, -0.0}))
	for _, src := range batchRejects() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		sensor, times, values, err := DecodeBatch(src)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if bound := len(src) / 9; cap(times) > bound || cap(values) > bound {
			t.Fatalf("%d bytes decoded into columns of capacity %d and %d (bound %d)", len(src), cap(times), cap(values), bound)
		}
		if got := AppendBatch(nil, sensor, times, values); !bytes.Equal(got, src) {
			t.Fatalf("re-encoded\n%x\ninput\n%x", got, src)
		}
	})
}
