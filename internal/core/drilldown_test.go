package core

import (
	"context"
	"strings"
	"testing"

	"seedb/internal/datagen"
	"seedb/internal/engine"
)

func drillTable(t *testing.T) *engine.Table {
	t.Helper()
	tb := engine.MustNewTable("d", engine.Schema{
		{Name: "s", Type: engine.TypeString},
		{Name: "i", Type: engine.TypeInt},
		{Name: "f", Type: engine.TypeFloat},
		{Name: "ts", Type: engine.TypeTime},
		{Name: "m", Type: engine.TypeFloat},
	})
	for k := 0; k < 100; k++ {
		var s engine.Value
		if k%10 == 0 {
			s = engine.NullValue(engine.TypeString)
		} else {
			s = engine.String(string(rune('a' + k%3)))
		}
		_ = tb.AppendRow(s, engine.Int(int64(k%7)), engine.Float(float64(k)),
			engine.Value{Kind: engine.TypeTime, I: int64(k) * 1e9}, engine.Float(float64(k)))
	}
	return tb
}

func countWhere(t *testing.T, tb *engine.Table, p engine.Predicate) int {
	t.Helper()
	b, err := p.Bind(tb)
	if err != nil {
		t.Fatalf("Bind(%s): %v", p, err)
	}
	n := 0
	for i := 0; i < tb.NumRows(); i++ {
		if b(i) {
			n++
		}
	}
	return n
}

func TestGroupPredicateDiscrete(t *testing.T) {
	tb := drillTable(t)
	v := View{Dimension: "s", Measure: "m", Func: engine.AggSum}
	p, err := GroupPredicate(v, tb, "a")
	if err != nil {
		t.Fatal(err)
	}
	// k%3==0 and k%10!=0 → values 'a' at k=3,6,9*,12,... count directly:
	want := 0
	for k := 0; k < 100; k++ {
		if k%10 != 0 && k%3 == 0 {
			want++
		}
	}
	if got := countWhere(t, tb, p); got != want {
		t.Errorf("matched %d rows, want %d", got, want)
	}
	// NULL group.
	pn, err := GroupPredicate(v, tb, "NULL")
	if err != nil {
		t.Fatal(err)
	}
	if got := countWhere(t, tb, pn); got != 10 {
		t.Errorf("NULL group matched %d, want 10", got)
	}
	// Int dimension equality.
	vi := View{Dimension: "i", Measure: "m", Func: engine.AggSum}
	pi, err := GroupPredicate(vi, tb, "3")
	if err != nil {
		t.Fatal(err)
	}
	want = 0
	for k := 0; k < 100; k++ {
		if k%7 == 3 {
			want++
		}
	}
	if got := countWhere(t, tb, pi); got != want {
		t.Errorf("i=3 matched %d, want %d", got, want)
	}
}

func TestGroupPredicateBinned(t *testing.T) {
	tb := drillTable(t)
	// Float bins of width 25: label "25.0" covers [25,50).
	vf := View{Dimension: "f", Measure: "m", Func: engine.AggSum, BinWidth: 25}
	p, err := GroupPredicate(vf, tb, "25.0")
	if err != nil {
		t.Fatal(err)
	}
	if got := countWhere(t, tb, p); got != 25 {
		t.Errorf("float bin matched %d, want 25", got)
	}
	// Int bins of width 2 on i (values 0..6): label "2" covers {2,3}.
	vi := View{Dimension: "i", Measure: "m", Func: engine.AggSum, BinWidth: 2}
	pi, err := GroupPredicate(vi, tb, "2")
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for k := 0; k < 100; k++ {
		if k%7 == 2 || k%7 == 3 {
			want++
		}
	}
	if got := countWhere(t, tb, pi); got != want {
		t.Errorf("int bin matched %d, want %d", got, want)
	}
	// Time bins of width 10s: label is the RFC3339 bucket start.
	vt := View{Dimension: "ts", Measure: "m", Func: engine.AggSum, BinWidth: 10e9}
	pt, err := GroupPredicate(vt, tb, "1970-01-01T00:00:10Z")
	if err != nil {
		t.Fatal(err)
	}
	if got := countWhere(t, tb, pt); got != 10 {
		t.Errorf("time bin matched %d, want 10", got)
	}
}

func TestGroupPredicateErrors(t *testing.T) {
	tb := drillTable(t)
	v := View{Dimension: "zz", Measure: "m", Func: engine.AggSum}
	if _, err := GroupPredicate(v, tb, "x"); err == nil {
		t.Error("missing column must error")
	}
	vi := View{Dimension: "i", Measure: "m", Func: engine.AggSum}
	if _, err := GroupPredicate(vi, tb, "not-an-int"); err == nil {
		t.Error("bad int label must error")
	}
	vf := View{Dimension: "f", Measure: "m", Func: engine.AggSum, BinWidth: 10}
	if _, err := GroupPredicate(vf, tb, "junk"); err == nil {
		t.Error("bad float label must error")
	}
	vt := View{Dimension: "ts", Measure: "m", Func: engine.AggSum}
	if _, err := GroupPredicate(vt, tb, "not-a-time"); err == nil {
		t.Error("bad time label must error")
	}
}

func TestDrillDownEndToEnd(t *testing.T) {
	// Superstore: ask about Furniture, then drill into the Central
	// region (the planted loss region) and recommend within it.
	cat := engine.NewCatalog()
	if err := cat.Register(datagen.Superstore("orders", 20000, 42)); err != nil {
		t.Fatal(err)
	}
	e := New(engine.NewExecutor(cat))
	ctx := context.Background()
	q := Query{Table: "orders", Predicate: engine.Eq("category", engine.String("Furniture"))}

	opts := DefaultOptions()
	opts.K = 5
	res, err := e.Recommend(ctx, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	var regionView *ViewData
	for _, rec := range res.Recommendations {
		if rec.Data.View.Dimension == "region" {
			regionView = rec.Data
			break
		}
	}
	if regionView == nil {
		// region views exist in AllScores even if not top-k.
		for _, s := range res.AllScores {
			if s.View.Dimension == "region" {
				regionView = &ViewData{View: s.View}
				break
			}
		}
	}
	if regionView == nil {
		t.Fatal("no region view scored")
	}

	drill, err := e.DrillDown(ctx, q, regionView.View, "Central", opts)
	if err != nil {
		t.Fatal(err)
	}
	if drill.TargetRowCount >= res.TargetRowCount {
		t.Errorf("drill-down subset (%d) must be smaller than the original (%d)",
			drill.TargetRowCount, res.TargetRowCount)
	}
	if !strings.Contains(drill.Query.String(), "region = 'Central'") {
		t.Errorf("drill query = %q", drill.Query.String())
	}
	// The drilled dimension must no longer appear as a view dimension.
	for _, s := range drill.AllScores {
		if s.View.Dimension == "region" {
			t.Error("drilled dimension must be excluded from the refined view space")
		}
	}
	// Drill-down from an unfiltered query.
	drill2, err := e.DrillDown(ctx, Query{Table: "orders"}, regionView.View, "West", opts)
	if err != nil {
		t.Fatal(err)
	}
	if drill2.Query.Predicate == nil {
		t.Error("drill from full table should carry the group predicate")
	}
	// Errors propagate.
	if _, err := e.DrillDown(ctx, Query{Table: "none"}, regionView.View, "x", opts); err == nil {
		t.Error("missing table must error")
	}
	if _, err := e.DrillDown(ctx, q, View{Dimension: "zz"}, "x", opts); err == nil {
		t.Error("bad view must error")
	}
}
