package engine

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// gatherByRow is the oracle StringColumn.gather is held to: every
// selected row's string interned through the dictionary map, in row
// order.
func gatherByRow(c *StringColumn, name string, sel []int32) *StringColumn {
	out := NewStringColumn(name)
	for _, i := range sel {
		if c.nulls.get(int(i)) {
			out.AppendNull()
			continue
		}
		out.AppendString(c.dict[c.codes[i]])
	}
	return out
}

// TestStringGatherMatchesPerRowOracle: on a NULL-heavy, a single-value
// and a 10⁵-distinct string column, gathering placement-sized runs,
// the tail and a random selection with repeats gives the oracle's
// dictionary, codes and NULLs, and the same snapshot bytes.
func TestStringGatherMatchesPerRowOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	const rows = 120_000
	for _, tc := range []struct {
		name string
		row  func(i int) (string, bool) // value, null
	}{
		{"null-heavy", func(int) (string, bool) { return fmt.Sprint("v", rng.IntN(5)), rng.IntN(10) != 0 }},
		{"single-value", func(int) (string, bool) { return "only", false }},
		{"distinct-1e5", func(i int) (string, bool) { return fmt.Sprint("v", (i*7919)%100_000), false }},
	} {
		tab := MustNewTable("t", Schema{{Name: "s", Type: TypeString}})
		l := tab.StartLoad()
		col := l.Column(0).(*StringColumn)
		for i := range rows {
			if v, null := tc.row(i); null {
				col.AppendNull()
			} else {
				col.AppendString(v)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		random := make([]int32, 5000)
		for i := range random {
			random[i] = int32(rng.IntN(rows))
		}
		sels := map[string][]int32{"random": random}
		for _, rg := range [][2]int{{0, 4096}, {4096, 8192}, {rows - 1000, rows}, {0, rows}} {
			sel := make([]int32, rg[1]-rg[0])
			for i := range sel {
				sel[i] = int32(rg[0] + i)
			}
			sels[fmt.Sprint(rg)] = sel
		}
		for what, sel := range sels {
			got := tab.Gather("g", sel)
			want := &Table{name: "g", byName: map[string]int{"s": 0}, rows: len(sel), cols: []Column{gatherByRow(col, "s", sel)}}
			g, w := got.cols[0].(*StringColumn), want.cols[0].(*StringColumn)
			if !slices.Equal(g.dict, w.dict) || !slices.Equal(g.codes, w.codes) {
				t.Fatalf("%s %s: dictionary or codes differ from the oracle", tc.name, what)
			}
			for i := range sel {
				if g.IsNull(i) != w.IsNull(i) {
					t.Fatalf("%s %s: row %d NULL %v, oracle %v", tc.name, what, i, g.IsNull(i), w.IsNull(i))
				}
			}
			var gb, wb bytes.Buffer
			if err := WriteTableSnapshot(&gb, got); err != nil {
				t.Fatal(err)
			}
			if err := WriteTableSnapshot(&wb, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
				t.Fatalf("%s %s: snapshot bytes differ from the oracle's", tc.name, what)
			}
		}
	}
}
