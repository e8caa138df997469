package main

import (
	"math"
	"testing"

	"seedb"
)

var testBands = []float64{0.02, 0.10, 0.30, 0.50}

func genSequence(t *testing.T, table *seedb.Table, seed uint64, n int) []string {
	t.Helper()
	g, err := newQueryGen(table, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, n)
	for i := range out {
		band := testBands[i%len(testBands)]
		q := g.next(band)
		if math.Abs(q.Selectivity-band)/band > bandTolerance {
			t.Fatalf("query %d selects %.4f of the rows, outside the %.2f band: %s", i, q.Selectivity, band, q.SQL)
		}
		out[i] = q.SQL
	}
	return out
}

func TestQueryGenDeterministicAndDistinct(t *testing.T) {
	table := seedb.SuperstoreTable("orders", 20000, 7)
	a := genSequence(t, table, 1, 1000)
	b := genSequence(t, table, 1, 1000)
	c := genSequence(t, table, 2, 1000)
	seen := map[string]bool{}
	differ := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different query at %d:\n%s\n%s", i, a[i], b[i])
		}
		if a[i] != c[i] {
			differ = true
		}
		if seen[a[i]] {
			t.Fatalf("query %d repeats an earlier one: %s", i, a[i])
		}
		seen[a[i]] = true
	}
	if !differ {
		t.Fatal("two seeds gave the same sequence")
	}
}

// The SQL text and the Predicate of one query must select the same rows.
func TestQueryGenFormsAgree(t *testing.T) {
	table := seedb.SuperstoreTable("orders", 20000, 7)
	db := seedb.Open()
	if err := db.RegisterTable(table); err != nil {
		t.Fatal(err)
	}
	g, err := newQueryGen(table, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		q := g.next(testBands[i%len(testBands)])
		bySQL, err := db.RecommendSQL(t.Context(), q.SQL, seedb.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		byPred, err := db.Recommend(t.Context(), "orders", q.Predicate, seedb.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := int64(math.Round(q.Selectivity * float64(table.NumRows())))
		if bySQL.TargetRowCount != want || byPred.TargetRowCount != want {
			t.Fatalf("%s: generator counted %d rows, SQL form %d, Predicate form %d", q.SQL, want, bySQL.TargetRowCount, byPred.TargetRowCount)
		}
	}
}

func TestQueryGenSkipsDependentDimensions(t *testing.T) {
	g, err := newQueryGen(seedb.SuperstoreTable("orders", 20000, 7), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range g.dims {
		if d.name == "category" || d.name == "subcategory" {
			t.Fatalf("%s determines or is determined by another dimension and must not be filtered on", d.name)
		}
	}
}
