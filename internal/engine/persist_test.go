package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func snapshotTable(t *testing.T) *Table {
	t.Helper()
	tb := MustNewTable("snap", Schema{
		{Name: "s", Type: TypeString},
		{Name: "i", Type: TypeInt},
		{Name: "f", Type: TypeFloat},
		{Name: "ts", Type: TypeTime},
	})
	base := time.Date(2014, 9, 1, 0, 0, 0, 0, time.UTC)
	for k := 0; k < 500; k++ {
		var s, i, f, ts Value
		switch k % 7 {
		case 0:
			s = NullValue(TypeString)
		default:
			s = String(strings.Repeat("v", k%5+1))
		}
		if k%11 == 0 {
			i = NullValue(TypeInt)
		} else {
			i = Int(int64(k - 250))
		}
		if k%13 == 0 {
			f = NullValue(TypeFloat)
		} else {
			f = Float(float64(k) / 3)
		}
		if k%17 == 0 {
			ts = NullValue(TypeTime)
		} else {
			ts = Time(base.Add(time.Duration(k) * time.Minute))
		}
		if err := tb.AppendRow(s, i, f, ts); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestSnapshotRoundTrip(t *testing.T) {
	tb := snapshotTable(t)
	var buf bytes.Buffer
	if err := WriteTable(&buf, tb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != tb.Name() || got.NumRows() != tb.NumRows() || got.NumCols() != tb.NumCols() {
		t.Fatalf("shape mismatch: %s %dx%d", got.Name(), got.NumRows(), got.NumCols())
	}
	for i := 0; i < tb.NumRows(); i++ {
		want, have := tb.Row(i), got.Row(i)
		for c := range want {
			if !want[c].Equal(have[c]) {
				t.Fatalf("row %d col %d: %v != %v", i, c, have[c], want[c])
			}
		}
	}
	// The loaded table must be fully queryable.
	cat := NewCatalog()
	if err := cat.Register(got); err != nil {
		t.Fatal(err)
	}
	res, err := NewExecutor(cat).Run(context.Background(), &Query{
		Table: "snap", GroupBy: []string{"s"},
		Aggs: []AggSpec{{Func: AggSum, Column: "f"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("loaded table should aggregate")
	}
}

func TestSnapshotChecksumDetectsCorruption(t *testing.T) {
	tb := snapshotTable(t)
	var buf bytes.Buffer
	if err := WriteTable(&buf, tb); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one payload byte.
	corrupted := append([]byte(nil), data...)
	corrupted[len(corrupted)/2] ^= 0xFF
	if _, err := ReadTable(bytes.NewReader(corrupted)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corruption should fail the checksum, got %v", err)
	}
	// Truncation fails cleanly too.
	if _, err := ReadTable(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated snapshot must error")
	}
	if _, err := ReadTable(bytes.NewReader(nil)); err == nil {
		t.Error("empty snapshot must error")
	}
	// Wrong magic.
	bad := append([]byte("XXXX"), data[4:]...)
	if _, err := ReadTable(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic must error")
	}
}

func TestSnapshotEmptyTable(t *testing.T) {
	tb := MustNewTable("empty", Schema{{Name: "a", Type: TypeInt}})
	var buf bytes.Buffer
	if err := WriteTable(&buf, tb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 || got.NumCols() != 1 {
		t.Errorf("shape = %dx%d", got.NumRows(), got.NumCols())
	}
}

func TestSnapshotRoundTripProperty(t *testing.T) {
	f := func(ints []int64, strs []string) bool {
		n := len(ints)
		if len(strs) < n {
			n = len(strs)
		}
		tb := MustNewTable("p", Schema{
			{Name: "i", Type: TypeInt},
			{Name: "s", Type: TypeString},
		})
		for k := 0; k < n; k++ {
			if err := tb.AppendRow(Int(ints[k]), String(strs[k])); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := WriteTable(&buf, tb); err != nil {
			return false
		}
		got, err := ReadTable(&buf)
		if err != nil {
			return false
		}
		if got.NumRows() != n {
			return false
		}
		for k := 0; k < n; k++ {
			w, h := tb.Row(k), got.Row(k)
			if !w[0].Equal(h[0]) || !w[1].Equal(h[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSnapshotDictionaryPreserved(t *testing.T) {
	tb := MustNewTable("dict", Schema{{Name: "s", Type: TypeString}})
	for _, s := range []string{"z", "a", "z", "m"} {
		_ = tb.AppendRow(String(s))
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, tb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := got.Column("s")
	col := sc.(*StringColumn)
	// Dictionary order (first-seen) must survive so codes stay valid.
	if col.CodeOf("z") != 0 || col.CodeOf("a") != 1 || col.CodeOf("m") != 2 {
		t.Errorf("dictionary order lost: %v", col.Dict())
	}
	if col.Cardinality() != 3 {
		t.Errorf("cardinality = %d", col.Cardinality())
	}
}

// TestSnapshotBytesPinned pins the SDB1 and SDB2 encodings of a table
// with every column kind and nulls: ContentHash digests the SDB1 bytes,
// and durable snapshots and shipped fragments are SDB2, so an encoder
// change must not move a byte.
func TestSnapshotBytesPinned(t *testing.T) {
	tb := snapshotTable(t)
	for _, c := range []struct {
		name  string
		write func(io.Writer, *Table) error
		want  string
	}{
		{"SDB1", WriteTable, "d467287610cdea369d219dcbfdb9d25bbccf65fca6b811e25e8b1bc0784b5803"},
		{"SDB2", WriteTableSnapshot, "62d9d26cb1bf8be3ee985e165a5ece2eed9b04ec85e04b3a93a31ea1f9a2cbf2"},
	} {
		var buf bytes.Buffer
		if err := c.write(&buf, tb); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.want {
			t.Errorf("%s snapshot sha256 = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestSnapshotCodecAllocs: writing allocates nothing per value and
// reading allocates per column and dictionary string, not per value.
func TestSnapshotCodecAllocs(t *testing.T) {
	tb := snapshotTable(t)
	var buf bytes.Buffer
	if err := WriteTableSnapshot(&buf, tb); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	write := testing.AllocsPerRun(20, func() { _ = WriteTableSnapshot(io.Discard, tb) })
	read := testing.AllocsPerRun(20, func() { _, _ = ReadTable(bytes.NewReader(snap)) })
	if limit := float64(tb.NumRows() / 5); write > limit || read > limit {
		t.Errorf("allocs per snapshot of %d rows: write %.0f, read %.0f; want both <= %.0f", tb.NumRows(), write, read, limit)
	}
}
