package seedb

import (
	"context"
	"strings"
	"testing"
)

// TestDemoWalkthrough replays the paper's §4 demonstration end to end
// at the public API level: load all four demo datasets, issue the
// demo's template queries, and check that each returns ranked,
// renderable visualizations with sane statistics — the library-level
// equivalent of a conference attendee driving the demo.
func TestDemoWalkthrough(t *testing.T) {
	db := Open()
	for _, tb := range []*Table{
		SuperstoreTable("orders", 10_000, 42),
		ElectionsTable("contributions", 10_000, 42),
		MedicalTable("admissions", 10_000, 42),
		LaserwaveTable("sales", ScenarioA),
	} {
		if err := db.RegisterTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	syn, _, err := SyntheticTable(DefaultSyntheticConfig("synthetic", 10_000, 42))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable(syn); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"SELECT * FROM sales WHERE product = 'Laserwave'",
		"SELECT * FROM orders WHERE category = 'Furniture'",
		"SELECT * FROM orders WHERE category = 'Technology' AND order_month = '11-Nov'",
		"SELECT * FROM contributions WHERE party = 'Democratic'",
		"SELECT * FROM contributions WHERE amount > 500",
		"SELECT * FROM admissions WHERE diagnosis_group = 'Sepsis'",
		"SELECT * FROM synthetic WHERE d0 = 'd0_v0'",
	}
	ctx := context.Background()
	for _, q := range queries {
		t.Run(q, func(t *testing.T) {
			opts := DefaultOptions()
			opts.K = 5
			opts.IncludeWorst = 2
			res, err := db.RecommendSQL(ctx, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Recommendations) == 0 {
				t.Fatal("no recommendations")
			}
			if res.TargetRowCount <= 0 || res.TargetRowCount > 10_000*2 {
				t.Errorf("|D_Q| = %d", res.TargetRowCount)
			}
			prev := res.Recommendations[0].Data.Utility
			for _, rec := range res.Recommendations {
				d := rec.Data
				if d.Utility > prev {
					t.Error("recommendations must be utility-sorted")
				}
				prev = d.Utility
				if len(d.Keys) == 0 || len(d.Target) != len(d.Keys) || len(d.Comparison) != len(d.Keys) {
					t.Fatalf("view %v data malformed", d.View)
				}
				// Every recommended view must render in both formats
				// without panicking.
				spec := Chart(d, true)
				if !strings.Contains(spec.SVG(420, 300), "<svg") {
					t.Error("SVG render failed")
				}
				if spec.ASCII(80) == "" {
					t.Error("ASCII render failed")
				}
			}
			// Worst views score at or below the weakest recommendation.
			if len(res.WorstViews) > 0 {
				weakest := res.Recommendations[len(res.Recommendations)-1].Data.Utility
				if res.WorstViews[0].Data.Utility > weakest {
					t.Error("worst view outranks a recommendation")
				}
			}
		})
	}
}

// TestMetricsConsistentAcrossAPI checks every registered metric runs
// end to end through the public API on the same query.
func TestMetricsConsistentAcrossAPI(t *testing.T) {
	db := Open()
	if err := db.RegisterTable(SuperstoreTable("orders", 5_000, 1)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, metric := range []string{"emd", "euclidean", "kl", "js", "l1", "hellinger", "chebyshev"} {
		opts := DefaultOptions()
		opts.Metric = metric
		opts.K = 3
		res, err := db.RecommendSQL(ctx, "SELECT * FROM orders WHERE category = 'Furniture'", opts)
		if err != nil {
			t.Fatalf("%s: %v", metric, err)
		}
		if res.Metric != metric || len(res.Recommendations) == 0 {
			t.Errorf("%s: result incomplete", metric)
		}
		for _, s := range res.AllScores {
			if s.Utility < 0 {
				t.Errorf("%s: negative utility for %v", metric, s.View)
			}
		}
	}
}

// TestDrillDownChain drives a two-level drill-down through the public
// API, mirroring an analyst narrowing a cohort twice.
func TestDrillDownChain(t *testing.T) {
	db := Open()
	if err := db.RegisterTable(MedicalTable("admissions", 10_000, 3)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := DefaultOptions()
	opts.K = 5

	pred := Eq("diagnosis_group", String("Sepsis"))
	res, err := db.Recommend(ctx, "admissions", pred, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ageView View
	for _, s := range res.AllScores {
		if s.View.Dimension == "age_bucket" {
			ageView = s.View
			break
		}
	}
	if ageView.Dimension == "" {
		t.Fatal("no age view")
	}
	lvl1, err := db.DrillDown(ctx, "admissions", pred, ageView, "75+", opts)
	if err != nil {
		t.Fatal(err)
	}
	var wardView View
	for _, s := range lvl1.AllScores {
		if s.View.Dimension == "ward" {
			wardView = s.View
			break
		}
	}
	if wardView.Dimension == "" {
		t.Fatal("no ward view at level 1")
	}
	lvl2, err := db.DrillDown(ctx, "admissions", lvl1.Query.Predicate, wardView, "ICU", opts)
	if err != nil {
		t.Fatal(err)
	}
	if lvl2.TargetRowCount >= lvl1.TargetRowCount || lvl1.TargetRowCount >= res.TargetRowCount {
		t.Errorf("subset sizes must strictly shrink: %d → %d → %d",
			res.TargetRowCount, lvl1.TargetRowCount, lvl2.TargetRowCount)
	}
	// Drilled dimensions are gone from the deepest view space.
	for _, s := range lvl2.AllScores {
		if s.View.Dimension == "age_bucket" || s.View.Dimension == "ward" || s.View.Dimension == "diagnosis_group" {
			t.Errorf("drilled dimension %q still in view space", s.View.Dimension)
		}
	}
}
