package core

import (
	"fmt"
	"testing"

	"seedb/internal/engine"
	"seedb/internal/stats"
)

// planFixture: 6 dims of cardinality 10, 2 measures.
func planFixture(t *testing.T) (*engine.Table, *stats.TableStats) {
	t.Helper()
	schema := engine.Schema{}
	for i := 0; i < 6; i++ {
		schema = append(schema, engine.ColumnDef{Name: fmt.Sprintf("d%d", i), Type: engine.TypeString})
	}
	schema = append(schema,
		engine.ColumnDef{Name: "m0", Type: engine.TypeFloat},
		engine.ColumnDef{Name: "m1", Type: engine.TypeFloat})
	tb := engine.MustNewTable("f", schema)
	for r := 0; r < 300; r++ {
		vals := make([]engine.Value, 8)
		for i := 0; i < 6; i++ {
			vals[i] = engine.String(fmt.Sprintf("d%d_v%d", i, (r+i)%10))
		}
		vals[6] = engine.Float(float64(r))
		vals[7] = engine.Float(float64(r % 17))
		_ = tb.AppendRow(vals...)
	}
	return tb, stats.NewCollector().Describe(tb)
}

func fixtureViews(funcs ...engine.AggFunc) []View {
	if len(funcs) == 0 {
		funcs = []engine.AggFunc{engine.AggSum}
	}
	var views []View
	for i := 0; i < 6; i++ {
		for _, m := range []string{"m0", "m1"} {
			for _, f := range funcs {
				views = append(views, View{Dimension: fmt.Sprintf("d%d", i), Measure: m, Func: f})
			}
		}
	}
	return views
}

func planOpts(t *testing.T, mutate func(*Options)) Options {
	t.Helper()
	opts, err := DefaultOptions().normalize()
	if err != nil {
		t.Fatal(err)
	}
	mutate(&opts)
	return opts
}

func TestPlanBasicFramework(t *testing.T) {
	_, ts := planFixture(t)
	opts := planOpts(t, func(o *Options) {
		o.CombineAggregates = false
		o.CombineGroupBys = CombineNone
		o.CombineTargetComparison = false
	})
	views := fixtureViews()
	p, err := buildPlan(views, ts, Query{Table: "f"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// One unit per view.
	if len(p.units) != len(views) {
		t.Fatalf("units = %d, want %d", len(p.units), len(views))
	}
	for _, u := range p.units {
		if len(u.allAggs(false)) != 1 {
			t.Errorf("basic unit has %d aggs, want 1", len(u.allAggs(false)))
		}
		if u.composite || u.sets != nil {
			t.Error("basic unit must be single-dimension")
		}
	}
}

func TestPlanCombineAggregates(t *testing.T) {
	_, ts := planFixture(t)
	opts := planOpts(t, func(o *Options) {
		o.CombineAggregates = true
		o.CombineGroupBys = CombineNone
		o.CombineTargetComparison = true
	})
	views := fixtureViews(engine.AggSum, engine.AggCount)
	p, err := buildPlan(views, ts, Query{Table: "f", Predicate: engine.Eq("d0", engine.String("d0_v0"))}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.units) != 6 {
		t.Fatalf("units = %d, want 6 (one per dim)", len(p.units))
	}
	for _, u := range p.units {
		// 4 views per dim (2 measures × 2 funcs) × 2 sides = 8 specs.
		if len(u.allAggs(true)) != 8 {
			t.Errorf("unit %v has %d combined aggs, want 8", u.dims, len(u.allAggs(true)))
		}
	}
}

func TestPlanGroupingSetsPacking(t *testing.T) {
	_, ts := planFixture(t)
	// Budget of 22 groups: cardinality 10(+1 null) each → 2 dims per
	// unit → 3 units.
	opts := planOpts(t, func(o *Options) {
		o.CombineGroupBys = CombineGroupingSets
		o.GroupBudget = 22
	})
	p, err := buildPlan(fixtureViews(), ts, Query{Table: "f"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.units) != 3 {
		t.Fatalf("units = %d, want 3", len(p.units))
	}
	covered := map[string]bool{}
	for _, u := range p.units {
		if len(u.dims) != 2 {
			t.Errorf("unit dims = %v, want 2 per unit", u.dims)
		}
		if u.sets == nil || len(u.sets) != len(u.dims) {
			t.Errorf("unit %v must carry one grouping set per dim", u.dims)
		}
		for _, d := range u.dims {
			covered[d] = true
		}
	}
	if len(covered) != 6 {
		t.Errorf("covered dims = %d, want 6", len(covered))
	}
	// Huge budget: one unit with all 6 dims.
	opts.GroupBudget = 1000
	p2, err := buildPlan(fixtureViews(), ts, Query{Table: "f"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.units) != 1 || len(p2.units[0].dims) != 6 {
		t.Errorf("huge budget should pack everything into one unit, got %d units", len(p2.units))
	}
}

func TestPlanCompositeKeyPacking(t *testing.T) {
	_, ts := planFixture(t)
	// log-budget packing: budget 150 groups, cards 11 each →
	// 11² = 121 ≤ 150 but 11³ > 150 → pairs.
	opts := planOpts(t, func(o *Options) {
		o.CombineGroupBys = CombineCompositeKey
		o.GroupBudget = 150
	})
	p, err := buildPlan(fixtureViews(), ts, Query{Table: "f"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.units) != 3 {
		t.Fatalf("units = %d, want 3 pairs", len(p.units))
	}
	for _, u := range p.units {
		if len(u.dims) != 2 || !u.composite {
			t.Errorf("unit %v composite=%v, want 2-dim composite", u.dims, u.composite)
		}
		if u.sets != nil {
			t.Error("composite units must not use grouping sets")
		}
	}
}

func TestPlanCompositeAvgRewrite(t *testing.T) {
	_, ts := planFixture(t)
	opts := planOpts(t, func(o *Options) {
		o.CombineGroupBys = CombineCompositeKey
		o.GroupBudget = 1000
	})
	views := []View{
		{Dimension: "d0", Measure: "m0", Func: engine.AggAvg},
		{Dimension: "d1", Measure: "m0", Func: engine.AggSum},
	}
	p, err := buildPlan(views, ts, Query{Table: "f"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.units) != 1 || !p.units[0].composite {
		t.Fatalf("expected one composite unit, got %+v", p.units)
	}
	u := p.units[0]
	// AVG view: SUM + COUNT on both sides = 4 specs; SUM view: 2 specs.
	if len(u.allAggs(true)) != 6 {
		t.Errorf("aggs = %d, want 6 (AVG→SUM+COUNT×2 + SUM×2)", len(u.allAggs(true)))
	}
	var avgCols viewCols
	for _, vc := range u.bindings["d0"] {
		if vc.view.Func == engine.AggAvg {
			avgCols = vc
		}
	}
	if avgCols.tAux == "" || avgCols.cAux == "" {
		t.Error("composite AVG must carry auxiliary count columns")
	}
	// SUM of the AVG-rewrite: primary spec must be SUM, not AVG.
	for _, a := range u.allAggs(true) {
		if a.Func == engine.AggAvg {
			t.Error("composite plans must not contain raw AVG specs")
		}
	}
}

func TestPlanCompositeVarFallback(t *testing.T) {
	_, ts := planFixture(t)
	opts := planOpts(t, func(o *Options) {
		o.CombineGroupBys = CombineCompositeKey
		o.GroupBudget = 1000
	})
	views := []View{
		{Dimension: "d0", Measure: "m0", Func: engine.AggSum},
		{Dimension: "d0", Measure: "m0", Func: engine.AggVariance}, // not decomposable
		{Dimension: "d1", Measure: "m0", Func: engine.AggSum},
	}
	p, err := buildPlan(views, ts, Query{Table: "f"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// One composite unit (d0 SUM + d1 SUM) + one fallback unit (d0 VAR).
	var compositeUnits, fallbackUnits int
	for _, u := range p.units {
		if u.composite {
			compositeUnits++
		} else {
			fallbackUnits++
			for _, vcs := range u.bindings {
				for _, vc := range vcs {
					if vc.view.Func != engine.AggVariance {
						t.Errorf("fallback unit should carry only VAR views, got %v", vc.view)
					}
				}
			}
		}
	}
	if compositeUnits != 1 || fallbackUnits != 1 {
		t.Errorf("units: composite=%d fallback=%d, want 1/1", compositeUnits, fallbackUnits)
	}
}

func TestPlanScanParallelism(t *testing.T) {
	_, ts := planFixture(t)
	opts := planOpts(t, func(o *Options) {
		o.CombineGroupBys = CombineGroupingSets
		o.GroupBudget = 1_000_000 // one unit
		o.Parallelism = 8
	})
	p, err := buildPlan(fixtureViews(), ts, Query{Table: "f"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.units) != 1 {
		t.Fatalf("units = %d", len(p.units))
	}
	if p.scanParallelism != 8 {
		t.Errorf("single unit should get the full scan parallelism, got %d", p.scanParallelism)
	}
	// Many units: scan parallelism stays 1.
	opts2 := planOpts(t, func(o *Options) {
		o.CombineGroupBys = CombineNone
		o.Parallelism = 4
	})
	p2, _ := buildPlan(fixtureViews(), ts, Query{Table: "f"}, opts2)
	if p2.scanParallelism != 1 {
		t.Errorf("many units: scan parallelism = %d, want 1", p2.scanParallelism)
	}
}

func TestDecomposable(t *testing.T) {
	yes := []engine.AggFunc{engine.AggCount, engine.AggSum, engine.AggMin, engine.AggMax, engine.AggAvg}
	for _, f := range yes {
		if !decomposable(f) {
			t.Errorf("%v should be decomposable", f)
		}
	}
	for _, f := range []engine.AggFunc{engine.AggVariance, engine.AggStddev} {
		if decomposable(f) {
			t.Errorf("%v should not be decomposable", f)
		}
	}
}

func TestCombineModeString(t *testing.T) {
	if CombineNone.String() != "none" ||
		CombineGroupingSets.String() != "grouping-sets" ||
		CombineCompositeKey.String() != "composite-key" {
		t.Error("mode names wrong")
	}
	if CombineMode(9).String() == "" {
		t.Error("unknown mode should render")
	}
}

func TestOptionsNormalize(t *testing.T) {
	if _, err := (Options{}).normalize(); err == nil {
		t.Error("K=0 must error")
	}
	if _, err := (Options{K: 5, SampleFraction: 1.5}).normalize(); err == nil {
		t.Error("bad sample fraction must error")
	}
	if _, err := (Options{K: 5, Phases: -1}).normalize(); err == nil {
		t.Error("negative phases must error")
	}
	o, err := (Options{K: 5}).normalize()
	if err != nil {
		t.Fatal(err)
	}
	if o.Metric != "emd" || o.MaxGroupsPerDim <= 0 || o.Parallelism <= 0 || len(o.AggFuncs) == 0 {
		t.Errorf("defaults not filled: %+v", o)
	}
	o2, err := (Options{K: 1, Phases: 5}).normalize()
	if err != nil {
		t.Fatal(err)
	}
	if o2.PhaseConfidence != 0.95 {
		t.Errorf("phase confidence default = %v", o2.PhaseConfidence)
	}
}
