package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
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

// rangeSchema is digestSchema plus an INT and a STRING column that are
// NULL on every row.
var rangeSchema = append(slices.Clone(digestSchema), ColumnDef{Name: "ni", Type: TypeInt}, ColumnDef{Name: "ns", Type: TypeString})

// rangeRow is digestRow with NaN, ±Inf and −0 among the floats and the
// all-NULL columns appended.
func rangeRow(r, shift int) []Value {
	row := digestRow(r, shift, []string{"alpha", "beta", "gamma", "delta", "", "NULL", "ab"})
	if special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}; r%5 == 1 && !row[2].Null {
		row[2] = Float(special[r/5%len(special)])
	}
	return append(row, NullValue(TypeInt), NullValue(TypeString))
}

// rangeTable returns a table of rows rangeRow rows under schema,
// passing each through edit first when it is non-nil.
func rangeTable(t testing.TB, schema Schema, rows int, edit func(r int, row []Value)) *Table {
	t.Helper()
	tb := MustNewTable("r", schema)
	for r := range rows {
		row := rangeRow(r, 0)
		if edit != nil {
			edit(r, row)
		}
		if err := tb.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// mustHash is RangeContentHash that fails the test on an error.
func mustHash(t testing.TB, tb *Table, lo, hi int) string {
	t.Helper()
	h, err := tb.RangeContentHash(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// extractHash is the ContentHash of rows [lo, hi) of tb extracted into
// a table of their own, which shares no memo with tb.
func extractHash(t testing.TB, tb *Table, lo, hi int) string {
	t.Helper()
	x, err := tb.ExtractRange("x", lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return mustHash(t, x, 0, hi-lo)
}

// roundTripHash is the ContentHash of tb after an SDB2 snapshot round
// trip.
func roundTripHash(t testing.TB, tb *Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTableSnapshot(&buf, tb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return mustHash(t, back, 0, back.NumRows())
}

// batchAppended appends rows [lo, hi) of tb, batch rows at a time, to a
// table whose first cell holds other rows (so its dictionary meets the
// strings in another order), checking after every batch that the grown
// range hashes as tb's rows do. It returns the grown table.
func batchAppended(t testing.TB, tb *Table, lo, hi, batch int) *Table {
	t.Helper()
	g := MustNewTable("grown", tb.Schema())
	for r := range ChunkRows {
		if err := g.AppendRow(rangeRow(r, 3)...); err != nil {
			t.Fatal(err)
		}
	}
	for at := lo; at < hi; at += batch {
		end := min(at+batch, hi)
		rows := make([][]Value, 0, end-at)
		for r := at; r < end; r++ {
			rows = append(rows, tb.Row(r))
		}
		if _, err := g.Append(rows); err != nil {
			t.Fatal(err)
		}
		if got, want := mustHash(t, g, ChunkRows, ChunkRows+end-lo), extractHash(t, tb, lo, end); got != want {
			t.Fatalf("rows [%d,%d) appended %d at a time hash %s, want %s", lo, end, batch, got, want)
		}
	}
	return g
}

// TestRangeHashIsContent: RangeContentHash(lo, hi) is the content
// address of the rows alone. It equals the ContentHash of the rows
// extracted, round-tripped through a snapshot, cloned, or appended in
// batches to a table whose dictionary orders the strings differently;
// it changes with any value, the sign of a zero, a NULL, a column's
// name or type and the row count; and lo must be on the grid.
func TestRangeHashIsContent(t *testing.T) {
	for _, rows := range []int{0, 1, ChunkRows - 1, ChunkRows, ChunkRows + 1, 2*ChunkRows + 1} {
		t.Run(fmt.Sprint(rows), func(t *testing.T) {
			tb := rangeTable(t, rangeSchema, rows, nil)
			for lo := 0; lo <= rows; lo += ChunkRows {
				for _, hi := range []int{lo, lo + 1, lo + ChunkRows - 1, lo + ChunkRows, lo + ChunkRows + 1, rows} {
					if hi > rows {
						continue
					}
					h := mustHash(t, tb, lo, hi)
					x, err := tb.ExtractRange("x", lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					if eh, rh := extractHash(t, tb, lo, hi), roundTripHash(t, x); eh != h || rh != h {
						t.Fatalf("[%d,%d): range hash %s, extracted %s, round-tripped %s", lo, hi, h, eh, rh)
					}
				}
			}
			whole, err := tb.ContentHash()
			if err != nil || whole != mustHash(t, tb, 0, rows) {
				t.Fatalf("ContentHash %s is not RangeContentHash(0, rows) (%v)", whole, err)
			}
			if c := tb.Clone("copy"); mustHash(t, c, 0, rows) != whole {
				t.Fatal("a clone hashes differently")
			}
			for _, batch := range []int{1, 37, ChunkRows - 1, ChunkRows + 1} {
				if g := batchAppended(t, tb, 0, rows, batch); mustHash(t, g, ChunkRows, ChunkRows+rows) != whole {
					t.Fatalf("rows appended %d at a time hash differently", batch)
				}
			}

			// Each edit of the last row must move the hash.
			last := func(col int, v Value) func(r int, row []Value) {
				return func(r int, row []Value) {
					if r == rows-1 {
						row[col] = v
					}
				}
			}
			hashOf := func(schema Schema, edit func(r int, row []Value)) string {
				return mustHash(t, rangeTable(t, schema, rows, edit), 0, rows)
			}
			if rows > 0 {
				for _, c := range []struct {
					what string
					a, b func(r int, row []Value)
				}{
					{"values 1 and 2", last(1, Int(1)), last(1, Int(2))},
					{"-0 and +0", last(2, Float(math.Copysign(0, -1))), last(2, Float(0))},
					{"NULL and 0", last(1, NullValue(TypeInt)), last(1, Int(0))},
				} {
					if hashOf(rangeSchema, c.a) == hashOf(rangeSchema, c.b) {
						t.Errorf("%s share a hash", c.what)
					}
				}
			}
			renamed, retyped := slices.Clone(rangeSchema), slices.Clone(rangeSchema)
			renamed[1].Name = "j"
			retyped[4].Type = TypeTime
			toTime := func(r int, row []Value) { row[4] = NullValue(TypeTime) }
			if hashOf(renamed, nil) == whole || hashOf(retyped, toTime) == whole {
				t.Error("a renamed or retyped column leaves the hash")
			}
			if _, err := tb.Append([][]Value{rangeRow(rows, 0)}); err != nil {
				t.Fatal(err)
			}
			if grown := mustHash(t, tb, 0, rows+1); grown == whole || grown != extractHash(t, tb, 0, rows+1) {
				t.Fatal("an appended row leaves the hash, or the memo misses it")
			}
			if _, err := tb.RangeContentHash(1, rows+1); err == nil {
				t.Fatal("a range off the grid hashes")
			}
		})
	}
}

// TestRangeHashUnderAppends: hashes taken on several goroutines while
// another appends — sharing the table's digest memos — each equal the
// hash of the rows they covered, extracted.
func TestRangeHashUnderAppends(t *testing.T) {
	tb := rangeTable(t, rangeSchema, ChunkRows+100, nil)
	type taken struct {
		hi int
		h  string
	}
	got := make([][]taken, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				hi := tb.NumRows()
				h, err := tb.RangeContentHash(g%2*ChunkRows, hi)
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], taken{hi, h})
			}
		}()
	}
	for r := ChunkRows + 100; r < 4*ChunkRows; r += 37 {
		var batch [][]Value
		for i := r; i < r+37; i++ {
			batch = append(batch, rangeRow(i, 0))
		}
		if _, err := tb.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for g, hs := range got {
		for _, x := range hs {
			if want := extractHash(t, tb, g%2*ChunkRows, x.hi); x.h != want {
				t.Fatalf("hash of [%d,%d) taken during appends is %s, want %s", g%2*ChunkRows, x.hi, x.h, want)
			}
		}
	}
}

// FuzzRangeHashIsContent: a table built from arbitrary bytes and a
// grid-aligned range of it hash as TestRangeHashIsContent requires —
// range, extract, snapshot round trip, clone and batched append agree.
func FuzzRangeHashIsContent(f *testing.F) {
	f.Add([]byte("seed"), uint16(2*ChunkRows+5), uint8(1), uint16(700), uint16(37))
	f.Add([]byte{0x80, 0x00, 0xff, 0x7f, 0x01}, uint16(ChunkRows), uint8(0), uint16(ChunkRows), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, nrows uint16, loCell uint8, span, batch uint16) {
		if len(data) == 0 {
			return
		}
		rows := int(nrows) % (3*ChunkRows + 1)
		lo := min(int(loCell)%4*ChunkRows, rows/ChunkRows*ChunkRows)
		hi := lo + int(span)%(rows-lo+1)
		tb := MustNewTable("f", rangeSchema)
		for r := range rows {
			b := data[r%len(data)] ^ byte(r/len(data))
			row := rangeRow(int(b)*31+r%7, int(b)%3)
			if b&1 == 0 {
				row[1] = Int(int64(b) << 56)
			}
			if err := tb.AppendRow(row...); err != nil {
				t.Fatal(err)
			}
		}
		h := mustHash(t, tb, lo, hi)
		x, err := tb.ExtractRange("x", lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if eh, rh, ch := extractHash(t, tb, lo, hi), roundTripHash(t, x), mustHash(t, tb.Clone("c"), lo, hi); eh != h || rh != h || ch != h {
			t.Fatalf("[%d,%d) of %d: range %s, extracted %s, round-tripped %s, cloned %s", lo, hi, rows, h, eh, rh, ch)
		}
		if g := batchAppended(t, tb, lo, hi, 1+int(batch)%(2*ChunkRows)); mustHash(t, g, ChunkRows, ChunkRows+hi-lo) != h {
			t.Fatalf("[%d,%d) appended in batches hashes differently", lo, hi)
		}
	})
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
