package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"seedb/internal/obs"
)

// digestRow builds row r of a digest fixture: a string drawn from
// words (rotated by shift, so two fixtures can meet the same strings in
// different orders), an int, a float and a timestamp, each NULL on its
// own stride.
func digestRow(r, shift int, words []string) []Value {
	s := String(words[(r*7+shift)%len(words)])
	if r%11 == 3 {
		s = NullValue(TypeString)
	}
	i, f, ts := Int(int64(r*r%97-40)), Float(float64(r%13)*0.5-2), Time(time.Unix(int64(r)*3600, 0))
	if r%13 == 5 {
		i = NullValue(TypeInt)
	}
	if r%17 == 6 {
		f = NullValue(TypeFloat)
	}
	if r%19 == 7 {
		ts = NullValue(TypeTime)
	}
	return []Value{s, i, f, ts}
}

var digestSchema = Schema{{Name: "s", Type: TypeString}, {Name: "i", Type: TypeInt}, {Name: "f", Type: TypeFloat}, {Name: "ts", Type: TypeTime}}

// digestTable returns a table of rows rows, rows [lo, rows) drawn from
// digestRow and rows [0, lo) from it with shift.
func digestTable(t *testing.T, rows, lo, shift int) *Table {
	t.Helper()
	words := []string{"alpha", "beta", "gamma", "delta", "", "NULL", "ab"}
	tb := MustNewTable("d", digestSchema)
	for r := range rows {
		sh := 0
		if r < lo {
			sh = shift
		}
		if err := tb.AppendRow(digestRow(r, sh, words)...); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// cellDigests digests every sealed cell of tb from an empty memo on
// workers goroutines.
func cellDigests(tb *Table, workers int) []digest {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	tb.chunkMu.Lock()
	tb.chunkHashes, tb.runDigests = nil, nil
	tb.chunkMu.Unlock()
	tb.digestCellsLocked(0, tb.rows/ChunkRows, workers)
	return slices.Clone(tb.chunkHashes[:tb.rows/ChunkRows])
}

// TestChunkDigestIsContent: a sealed cell's digest is a function of the
// cell's content — schema and values — alone. Dictionary codes, table
// names, versions, grid position and the number of digesting goroutines
// never reach it, and the encoding keeps apart values that a looser one
// would run together.
func TestChunkDigestIsContent(t *testing.T) {
	a := digestTable(t, 4*ChunkRows, 0, 0)
	// b's cell 0 meets the strings in another order, so every later
	// string has another dictionary code in b than in a.
	b := digestTable(t, 4*ChunkRows, ChunkRows, 3)
	clone := a.Clone("copy") // before a digests anything: the clone digests its own cells
	da := cellDigests(a, 1)
	db := cellDigests(b, 1)
	if da[0] == db[0] {
		t.Fatal("cells with different rows share a digest")
	}
	if !slices.Equal(da[1:], db[1:]) {
		t.Fatal("equal cells under different dictionary codes digest differently")
	}
	a.mu.RLock()
	b.mu.RLock()
	ra, rb := a.runDigestLocked(0, 2), b.runDigestLocked(0, 2)
	ra1, rb1 := a.runDigestLocked(1, 3), b.runDigestLocked(1, 3)
	b.mu.RUnlock()
	a.mu.RUnlock()
	if ra == rb || ra1 != rb1 {
		t.Fatal("a run digest is not a function of every cell it covers")
	}
	if dc := cellDigests(clone, 1); !slices.Equal(dc, da) {
		t.Fatal("a clone's cells digest differently")
	}
	for _, workers := range []int{2, 8} {
		if got := cellDigests(a, workers); !slices.Equal(got, da) {
			t.Fatalf("%d digesting goroutines change the digests", workers)
		}
	}

	// Segments at grid boundaries: extracted, and appended to a table
	// whose dictionary b's first cell set up.
	seg, err := a.ExtractRange("seg", ChunkRows, 3*ChunkRows)
	if err != nil {
		t.Fatal(err)
	}
	if got := cellDigests(seg, 2); !slices.Equal(got, da[1:3]) {
		t.Fatal("an extracted segment's cells digest differently")
	}
	grown, err := b.ExtractRange("grown", 0, ChunkRows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grown.AppendTable(seg); err != nil {
		t.Fatal(err)
	}
	if got := cellDigests(grown, 2); got[0] != db[0] || !slices.Equal(got[1:], da[1:3]) {
		t.Fatal("cells appended with AppendTable digest differently")
	}

	// Values a looser encoding would confuse.
	oneCell := func(col ColumnDef, at int, v Value, fill Value) digest {
		tb := MustNewTable(fmt.Sprint("x", at), Schema{col})
		for r := range ChunkRows {
			val := fill
			if r == at {
				val = v
			}
			if err := tb.AppendRow(val); err != nil {
				t.Fatal(err)
			}
		}
		return cellDigests(tb, 1)[0]
	}
	str := ColumnDef{Name: "v", Type: TypeString}
	null, empty, word := oneCell(str, 5, NullValue(TypeString), String("z")),
		oneCell(str, 5, String(""), String("z")), oneCell(str, 5, String("NULL"), String("z"))
	if null == empty || null == word || empty == word {
		t.Error("NULL, \"\" and \"NULL\" share a digest")
	}
	flt := ColumnDef{Name: "v", Type: TypeFloat}
	if oneCell(flt, 9, Float(math.Copysign(0, -1)), Float(1)) == oneCell(flt, 9, Float(0), Float(1)) {
		t.Error("-0 and +0 share a digest")
	}
	if oneCell(flt, 9, NullValue(TypeFloat), Float(1)) == oneCell(flt, 9, Float(0), Float(1)) {
		t.Error("NULL and 0 share a digest")
	}
	if oneCell(ColumnDef{Name: "v", Type: TypeInt}, 0, Int(1), Int(1)) == oneCell(flt, 0, Float(1), Float(1)) {
		t.Error("int 1 and float 1 under one column name share a digest")
	}

	// ("ab","c") vs ("a","bc") across a cell boundary.
	split := func(left, right string) (cells []digest, run digest) {
		tb := MustNewTable("split", Schema{str})
		for r := range 2 * ChunkRows {
			v := "z"
			switch r {
			case ChunkRows - 1:
				v = left
			case ChunkRows:
				v = right
			}
			if err := tb.AppendRow(String(v)); err != nil {
				t.Fatal(err)
			}
		}
		cells = cellDigests(tb, 1)
		tb.mu.RLock()
		defer tb.mu.RUnlock()
		return cells, tb.runDigestLocked(0, 2)
	}
	c1, r1 := split("ab", "c")
	c2, r2 := split("a", "bc")
	if c1[0] == c2[0] || c1[1] == c2[1] || r1 == r2 {
		t.Error(`("ab","c") and ("a","bc") in adjacent cells share a digest`)
	}
}

// TestStoredScanDigestsEachCellOnce: a table's first store-backed query
// digests every sealed cell exactly once, on the scan's workers; a
// never-seen predicate after it digests none, and a query after a
// 600-row append digests only the cell the append sealed. The count is
// the engine-scan span's hashed attribute.
func TestStoredScanDigestsEachCellOnce(t *testing.T) {
	const rows = 10*ChunkRows + 500
	tb := sharingTable(t, rows)
	stored, _ := storeFixture(t, tb)
	tracer := obs.NewTracer(4)
	hashed := func(where Predicate) string {
		t.Helper()
		tr := tracer.New("q")
		q := &Query{Table: "share", Where: where, Parallelism: 2}
		gsets := []GroupingSet{{By: []string{"dim"}, Aggs: []AggSpec{{Func: AggSum, Column: "m", Alias: "s"}}}}
		if _, err := stored.RunSharedScan(obs.ContextWithTrace(context.Background(), tr), q, gsets); err != nil {
			t.Fatal(err)
		}
		tracer.Finish(tr)
		d, _ := tracer.Get("q")
		return d.Spans[0].Attrs["hashed"]
	}
	if got := hashed(nil); got != "10" {
		t.Fatalf("first query digested %s cells, want all 10", got)
	}
	if got := hashed(Compare("tag", OpEq, String("t"))); got != "0" {
		t.Fatalf("a never-seen predicate digested %s cells, want 0", got)
	}
	var batch [][]Value
	for r := rows; r < rows+600; r++ {
		batch = append(batch, []Value{String("a"), Int(int64(r)), String("f"), Float(1), Int(2)})
	}
	if _, err := tb.Append(batch); err != nil {
		t.Fatal(err)
	}
	if got := hashed(Compare("tag", OpEq, String("t"))); got != "1" {
		t.Fatalf("the query after a 600-row append digested %s cells, want the 1 it sealed", got)
	}
}
