package cluster

import (
	"testing"

	"seedb/internal/engine"
)

// TestPlacedHashMemoIsBounded: the coordinator's fragment-hash memo
// keeps one entry per (table, placement index). 200 appends — each
// growing the last placement, some creating the next — and then a
// replacement of the table leave it no larger than the live
// placements, and every entry still answers with the range's hash.
func TestPlacedHashMemoIsBounded(t *testing.T) {
	l := &placed{rf: 1, span: engine.ChunkRows, hashes: map[placementID]fragHash{}}
	tb := engine.MustNewTable("t", engine.Schema{{Name: "x", Type: engine.TypeInt}})
	hashAll := func(tb *engine.Table) []fragment {
		n := tb.NumRows()
		frags := l.fragments(tb, n, 0, n)
		for _, f := range frags {
			if _, err := f.hash(); err != nil {
				t.Fatal(err)
			}
		}
		return frags
	}
	for i := 0; i < 200; i++ {
		rows := make([][]engine.Value, 37)
		for j := range rows {
			rows[j] = []engine.Value{engine.Int(int64(i*37 + j))}
		}
		if _, err := tb.Append(rows); err != nil {
			t.Fatal(err)
		}
		hashAll(tb)
	}
	live := hashAll(tb)
	if len(l.hashes) > len(live) {
		t.Fatalf("200 appends left %d memo entries for %d live placements", len(l.hashes), len(live))
	}
	replaced := hashAll(tb.Clone("t"))
	if len(l.hashes) > len(replaced) {
		t.Fatalf("a replaced table left %d memo entries for %d live placements", len(l.hashes), len(replaced))
	}
	for _, f := range replaced {
		got, _ := f.hash()
		want, err := tb.RangeContentHash(f.name, f.lo, f.hi)
		if err != nil || got != want {
			t.Fatalf("%s: memo answers %s, want %s (%v)", f.name, got, want, err)
		}
	}
}
