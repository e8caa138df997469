package cluster

import (
	"testing"

	"seedb/internal/engine"
)

// TestPlacedHashMemoIsBounded: a placement's hash is its table's range
// hash, memoized by the table itself. 200 appends of 37 rows under a
// one-chunk span — each growing the last placement, some creating the
// next — leave one run chain per anchor a placement hash asked for,
// none longer than the sealed cells from its anchor, and every
// placement's hash equal to its extracted rows' ContentHash.
func TestPlacedHashMemoIsBounded(t *testing.T) {
	l := &placed{rf: 1, span: engine.ChunkRows}
	tb := engine.MustNewTable("t", engine.Schema{{Name: "x", Type: engine.TypeInt}})
	anchors := map[int]bool{} // cells a hash started a sealed run at
	hashAll := func() []fragment {
		n := tb.NumRows()
		frags := l.fragments(tb, n, 0, n)
		for _, f := range frags {
			if _, err := f.hash(); err != nil {
				t.Fatal(err)
			}
			if f.hi-f.lo >= engine.ChunkRows {
				anchors[f.lo/engine.ChunkRows] = true
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
		hashAll()
	}
	chains, sealed := tb.RunChains(), tb.SealedChunks()
	if len(chains) != len(anchors) {
		t.Fatalf("200 appends left %d run chains for %d anchors asked for", len(chains), len(anchors))
	}
	for a, n := range chains {
		if !anchors[a] || n > min(sealed-a, l.span/engine.ChunkRows) {
			t.Fatalf("run chain at cell %d covers %d cells (asked for: %v, %d sealed)", a, n, anchors[a], sealed)
		}
	}
	for _, f := range hashAll() {
		got, _ := f.hash()
		frag, err := tb.ExtractRange(f.name, f.lo, f.hi)
		if err != nil {
			t.Fatal(err)
		}
		want, err := frag.ContentHash()
		if err != nil || got != want {
			t.Fatalf("%s: hash %s, want its rows' %s (%v)", f.name, got, want, err)
		}
	}
}
