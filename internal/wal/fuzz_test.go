package wal

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"seedb/internal/engine"
)

// fuzzLogSeeds builds realistic WAL images: a multi-record log over
// every value type, plus the torn/corrupt shapes recovery must absorb.
func fuzzLogSeeds(tb testing.TB) [][]byte {
	frame := func(rec *Record) []byte {
		payload, err := encodeRecord(rec)
		if err != nil {
			tb.Fatal(err)
		}
		f := make([]byte, frameHeaderSize+len(payload))
		writeFrameHeader(f, payload)
		copy(f[frameHeaderSize:], payload)
		return f
	}
	rows := [][]engine.Value{
		{engine.String("a"), engine.Int(-7), engine.Float(1.5),
			{Kind: engine.TypeTime, I: 1409529600}},
		{engine.NullValue(engine.TypeString), engine.NullValue(engine.TypeInt),
			engine.NullValue(engine.TypeFloat), engine.NullValue(engine.TypeTime)},
	}

	var full bytes.Buffer
	full.Write(frame(&Record{Table: "orders", PrevVersion: 0, Rows: rows}))
	full.Write(frame(&Record{Table: "orders", PrevVersion: 1, Rows: rows[:1]}))
	full.Write(frame(&Record{Table: "läser/wave", PrevVersion: 41, Rows: nil}))
	valid := full.Bytes()

	torn := append(append([]byte(nil), valid...), valid[:frameHeaderSize+3]...)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	return [][]byte{
		valid,
		torn,
		flipped,
		valid[:7], // shorter than one header
		append([]byte{0xFF, 0xFF, 0xFF, 0x7F}, valid[4:]...), // absurd length
		bytes.Repeat([]byte{0x00}, 32),                       // zero-length frames
	}
}

// fuzzValueEqual compares values at bit level: NaN payloads must round
// trip identically even though they compare unequal as floats.
func fuzzValueEqual(a, b engine.Value) bool {
	if a.Kind != b.Kind || a.Null != b.Null {
		return false
	}
	if a.Null {
		return true
	}
	switch a.Kind {
	case engine.TypeFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case engine.TypeString:
		return a.S == b.S
	default:
		return a.I == b.I
	}
}

// FuzzWALReplay: the record scanner must never panic on arbitrary
// bytes, nor allocate more than a constant times their length, must
// never claim a valid prefix longer than its input, and
// every record it does accept must survive an encode/decode round trip
// unchanged — the exact contract crash recovery relies on.
func FuzzWALReplay(f *testing.F) {
	for _, seed := range fuzzLogSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, validLen := scanRecords(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 128*uint64(len(data))+64<<10 {
			t.Fatalf("scanning %d bytes allocated %d", len(data), grew)
		}
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("valid prefix %d outside input of %d bytes", validLen, len(data))
		}
		var reencoded bytes.Buffer
		for i, rec := range recs {
			payload, err := encodeRecord(rec)
			if err != nil {
				t.Fatalf("accepted record %d failed to re-encode: %v", i, err)
			}
			frame := make([]byte, frameHeaderSize+len(payload))
			writeFrameHeader(frame, payload)
			copy(frame[frameHeaderSize:], payload)
			reencoded.Write(frame)
		}
		back, backLen := scanRecords(reencoded.Bytes())
		if len(back) != len(recs) || backLen != int64(reencoded.Len()) {
			t.Fatalf("re-encoded log scanned to %d records / %d bytes, want %d / %d",
				len(back), backLen, len(recs), reencoded.Len())
		}
		for i := range recs {
			a, b := recs[i], back[i]
			if a.Table != b.Table || a.PrevVersion != b.PrevVersion || len(a.Rows) != len(b.Rows) {
				t.Fatalf("record %d changed shape across round trip", i)
			}
			for ri := range a.Rows {
				for ci := range a.Rows[ri] {
					if !fuzzValueEqual(a.Rows[ri][ci], b.Rows[ri][ci]) {
						t.Fatalf("record %d row %d col %d changed: %v vs %v",
							i, ri, ci, a.Rows[ri][ci], b.Rows[ri][ci])
					}
				}
			}
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzWALReplay. Run with WAL_WRITE_CORPUS=1 after
// changing the record format; it is a no-op otherwise.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("WAL_WRITE_CORPUS") == "" {
		t.Skip("set WAL_WRITE_CORPUS=1 to regenerate the committed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWALReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range fuzzLogSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%d", i)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
