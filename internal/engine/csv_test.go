package engine

import (
	"strings"
	"testing"
)

const salesCSV = `store,amount,qty,when
"Cambridge, MA",180.55,3,2014-01-01T00:00:00Z
"Seattle, WA",145.50,2,2014-02-01T00:00:00Z
"New York, NY",122.00,4,2014-03-01T00:00:00Z
"San Francisco, CA",90.13,1,2014-04-01T00:00:00Z
`

func TestLoadCSVInferred(t *testing.T) {
	tb, err := LoadCSV("sales", strings.NewReader(salesCSV), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 4 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	s := tb.Schema()
	want := []Type{TypeString, TypeFloat, TypeInt, TypeTime}
	for i, w := range want {
		if s[i].Type != w {
			t.Errorf("column %q inferred %v, want %v", s[i].Name, s[i].Type, w)
		}
	}
	col, _ := tb.Column("amount")
	if got := col.Value(0).F; got != 180.55 {
		t.Errorf("amount[0] = %v", got)
	}
	store, _ := tb.Column("store")
	if got := store.Value(3).S; got != "San Francisco, CA" {
		t.Errorf("store[3] = %q", got)
	}
}

func TestLoadCSVExplicitTypesAndNulls(t *testing.T) {
	csv := "a,b\n1,\n,2.5\n"
	tb, err := LoadCSV("t", strings.NewReader(csv), []Type{TypeInt, TypeFloat})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := tb.Column("a")
	b, _ := tb.Column("b")
	if a.Value(0).I != 1 || !a.IsNull(1) {
		t.Error("column a wrong")
	}
	if !b.IsNull(0) || b.Value(1).F != 2.5 {
		t.Error("column b wrong")
	}
}

func TestLoadCSVErrors(t *testing.T) {
	if _, err := LoadCSV("t", strings.NewReader(""), nil); err == nil {
		t.Error("empty input must error (no header)")
	}
	if _, err := LoadCSV("t", strings.NewReader("a,b\n1,2\n"), []Type{TypeInt}); err == nil {
		t.Error("type count mismatch must error")
	}
	if _, err := LoadCSV("t", strings.NewReader("a\nnotanint\n"), []Type{TypeInt}); err == nil {
		t.Error("bad int must error")
	}
	if _, err := LoadCSV("t", strings.NewReader("a\nnotafloat\n"), []Type{TypeFloat}); err == nil {
		t.Error("bad float must error")
	}
	if _, err := LoadCSV("t", strings.NewReader("a\nnotatime\n"), []Type{TypeTime}); err == nil {
		t.Error("bad time must error")
	}
}
