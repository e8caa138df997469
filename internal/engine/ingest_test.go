package engine

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

// TestWireDialectRoundTrip: ParseRows(FormatRowsWire(rows)) returns
// rows value for value — −0's sign and a NaN included — both in
// process and after the JSON round trip a forward to an HTTP worker
// takes, for every value DB.Append accepts that the dialect carries.
func TestWireDialectRoundTrip(t *testing.T) {
	tb := MustNewTable("wire", Schema{
		{Name: "s", Type: TypeString},
		{Name: "f", Type: TypeFloat},
		{Name: "i", Type: TypeInt},
		{Name: "ts", Type: TypeTime},
	})
	stamp := time.Date(2024, 2, 29, 23, 59, 59, 123456789, time.UTC)
	row := func(s string, f float64, i int64, ts time.Time) []Value {
		return []Value{String(s), Float(f), Int(i), Time(ts)}
	}
	rows := [][]Value{
		row("", 0, 0, time.Unix(0, 0)),
		row("  West ", math.Copysign(0, -1), 1<<53+1, stamp),
		row("\tpadded\n", math.NaN(), -(1<<53 + 1), stamp.Add(time.Nanosecond)),
		row("NULL", math.Inf(1), math.MaxInt64, time.Unix(0, math.MinInt64)),
		row("NaN", math.Inf(-1), math.MinInt64, time.Unix(0, math.MaxInt64)),
		row("élan", 5e-324, 1<<53, stamp.Add(-time.Millisecond)),
		{NullValue(TypeString), NullValue(TypeFloat), NullValue(TypeInt), NullValue(TypeTime)},
	}
	same := func(a, b Value) bool {
		return a.Kind == b.Kind && a.Null == b.Null && a.S == b.S && a.I == b.I &&
			math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	wire := FormatRowsWire(rows)
	var viaJSON [][]any
	data, err := json.Marshal(wire)
	if err != nil {
		t.Fatalf("the wire shape does not marshal: %v", err)
	}
	if err := json.Unmarshal(data, &viaJSON); err != nil {
		t.Fatal(err)
	}
	for name, loose := range map[string][][]any{"in process": wire, "json": viaJSON} {
		got, err := tb.ParseRows(loose)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for r := range rows {
			for c := range rows[r] {
				if !same(got[r][c], rows[r][c]) {
					t.Errorf("%s: row %d column %s: got %+v, want %+v (wire %#v)", name, r, tb.Schema()[c].Name, got[r][c], rows[r][c], loose[r][c])
				}
			}
		}
	}
}

// TestJSONStringsAreNotCSV: a JSON string is exact — no trimming, ""
// is not NULL — so a string column keeps it and a typed column refuses
// what it cannot read exactly.
func TestJSONStringsAreNotCSV(t *testing.T) {
	tb := MustNewTable("j", Schema{{Name: "s", Type: TypeString}, {Name: "i", Type: TypeInt}})
	got, err := tb.ParseRows([][]any{{"", nil}, {" x ", "12"}})
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].Null || got[0][0].S != "" || !got[0][1].Null || got[1][0].S != " x " || got[1][1].I != 12 {
		t.Fatalf("parsed %+v", got)
	}
	for _, bad := range []string{"", " 12"} {
		if _, err := tb.ParseRows([][]any{{"x", bad}}); err == nil {
			t.Errorf("INT %q parsed; JSON strings are read exactly", bad)
		}
	}
}
