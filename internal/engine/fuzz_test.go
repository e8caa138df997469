package engine

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fuzzSnapshotSeed builds a small valid SDB1 snapshot covering every
// column type, as a realistic seed for the persist fuzzer.
func fuzzSnapshotSeed(tb testing.TB) []byte {
	t := MustNewTable("seed", Schema{
		{Name: "s", Type: TypeString},
		{Name: "i", Type: TypeInt},
		{Name: "f", Type: TypeFloat},
		{Name: "ts", Type: TypeTime},
	})
	base := time.Date(2014, 9, 1, 0, 0, 0, 0, time.UTC)
	rows := [][]Value{
		{String("a"), Int(1), Float(1.5), Time(base)},
		{String("b"), NullValue(TypeInt), Float(-2.25), Time(base.Add(time.Hour))},
		{NullValue(TypeString), Int(3), NullValue(TypeFloat), NullValue(TypeTime)},
	}
	if _, err := t.Append(rows); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeTableV1(&buf, t); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzPersistRoundTrip: ReadTable must never panic on arbitrary bytes
// — malformed snapshots error out — nor allocate more than a constant
// times their length, and anything it does accept must survive a
// write/read round trip unchanged.
func FuzzPersistRoundTrip(f *testing.F) {
	seed := fuzzSnapshotSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-5])                  // truncated payload
	f.Add(append([]byte("SDB2"), seed[4:]...)) // v2 magic over a v1 body (field shear)
	f.Add(append([]byte("XXXX"), seed[4:]...)) // wrong magic
	f.Add(bytes.Repeat([]byte{0xFF}, 64))      // varint garbage
	f.Add([]byte("SDB1"))                      // header only
	mut := append([]byte(nil), seed...)        // bit flip mid-payload
	mut[len(mut)/2] ^= 0x40
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tb, err := ReadTable(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 128*uint64(len(data))+64<<10 {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return // malformed input must error, never panic
		}
		var buf bytes.Buffer
		if err := WriteTableSnapshot(&buf, tb); err != nil {
			t.Fatalf("accepted snapshot failed to re-serialize: %v", err)
		}
		back, err := ReadTable(&buf)
		if err != nil {
			t.Fatalf("re-serialized snapshot failed to parse: %v", err)
		}
		if back.Name() != tb.Name() || back.NumRows() != tb.NumRows() || back.NumCols() != tb.NumCols() {
			t.Fatalf("round trip changed shape: %s/%d/%d vs %s/%d/%d",
				tb.Name(), tb.NumRows(), tb.NumCols(), back.Name(), back.NumRows(), back.NumCols())
		}
		for r := 0; r < tb.NumRows(); r++ {
			a, b := tb.Row(r), back.Row(r)
			for c := range a {
				if !a[c].Equal(b[c]) {
					t.Fatalf("round trip changed row %d col %d: %v vs %v", r, c, a[c], b[c])
				}
			}
		}
	})
}

// FuzzLoadCSV: CSV ingestion must never panic — ragged records, bad
// numbers, and binary garbage all have to come back as errors (or load
// cleanly), and whatever loads must be rectangular.
func FuzzLoadCSV(f *testing.F) {
	f.Add("a,b\n1,2\n3,4\n")
	f.Add("name,when,amount\nx,2014-09-01T00:00:00Z,1.5\n,,\n")
	f.Add("h1,h2\n\"quoted,comma\",2\n")
	f.Add("only_header\n")
	f.Add("a,a\n1,2\n") // duplicate column names
	f.Add("a,b\n1\n")   // ragged record
	f.Add("\x00\xff\xfe\n\x01,\x02\n")
	f.Add("a,b\n999999999999999999999999,2\n") // integer overflow
	f.Fuzz(func(t *testing.T, text string) {
		tb, err := LoadCSV("fuzz", strings.NewReader(text), nil)
		if err != nil {
			return
		}
		n := tb.NumRows()
		for c := 0; c < tb.NumCols(); c++ {
			if got := tb.ColumnAt(c).Len(); got != n {
				t.Fatalf("loaded table is ragged: column %d has %d rows, want %d", c, got, n)
			}
		}
	})
}
