package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"seedb/internal/datagen"
	"seedb/internal/engine"
)

// laserwaveEngine builds a SeeDB engine over the paper's running
// example.
func laserwaveEngine(t *testing.T, scen datagen.LaserwaveScenario) *Engine {
	t.Helper()
	cat := engine.NewCatalog()
	if err := cat.Register(datagen.Laserwave("sales", scen)); err != nil {
		t.Fatal(err)
	}
	return New(engine.NewExecutor(cat))
}

func laserwaveQuery() Query {
	return Query{Table: "sales", Predicate: engine.Eq("product", engine.String("Laserwave"))}
}

// TestLaserwaveTable1Distribution reproduces E1: the target view's
// distribution must be exactly the paper's §2 normalization
// (180.55/538.18, 145.50/538.18, 122.00/538.18, 90.13/538.18).
func TestLaserwaveTable1Distribution(t *testing.T) {
	e := laserwaveEngine(t, datagen.ScenarioA)
	opts := DefaultOptions()
	opts.K = 5
	opts.AggFuncs = []engine.AggFunc{engine.AggSum}
	res, err := e.Recommend(context.Background(), laserwaveQuery(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var storeView *ViewData
	for _, r := range res.Recommendations {
		if r.Data.View.Dimension == "store" && r.Data.View.Measure == "amount" {
			storeView = r.Data
		}
	}
	if storeView == nil {
		t.Fatal("SUM(amount) BY store view not recommended")
	}
	want := map[string]float64{
		"Cambridge, MA":     180.55 / 538.18,
		"Seattle, WA":       145.50 / 538.18,
		"New York, NY":      122.00 / 538.18,
		"San Francisco, CA": 90.13 / 538.18,
	}
	for i, k := range storeView.Keys {
		if w, ok := want[k]; ok {
			if math.Abs(storeView.Target[i]-w) > 1e-9 {
				t.Errorf("P[V(D_Q)][%s] = %v, want %v", k, storeView.Target[i], w)
			}
		}
	}
	if res.TargetRowCount != 8 {
		t.Errorf("|D_Q| = %d, want 8 Laserwave rows", res.TargetRowCount)
	}
}

// TestLaserwaveScenarios reproduces E2: the store view must score much
// higher under Scenario A (opposite overall trend, Figure 2) than
// under Scenario B (same trend, Figure 3), for every metric.
func TestLaserwaveScenarios(t *testing.T) {
	for _, metric := range []string{"emd", "euclidean", "kl", "js", "l1"} {
		utilities := map[datagen.LaserwaveScenario]float64{}
		for _, scen := range []datagen.LaserwaveScenario{datagen.ScenarioA, datagen.ScenarioB} {
			e := laserwaveEngine(t, scen)
			opts := DefaultOptions()
			opts.Metric = metric
			opts.AggFuncs = []engine.AggFunc{engine.AggSum}
			res, err := e.Recommend(context.Background(), laserwaveQuery(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range res.AllScores {
				if s.View.Dimension == "store" && s.View.Measure == "amount" && s.View.Func == engine.AggSum {
					utilities[scen] = s.Utility
				}
			}
		}
		if utilities[datagen.ScenarioA] <= utilities[datagen.ScenarioB] {
			t.Errorf("%s: U(A)=%v must exceed U(B)=%v", metric,
				utilities[datagen.ScenarioA], utilities[datagen.ScenarioB])
		}
	}
}

// syntheticEngine builds an engine over a planted-deviation synthetic
// table.
func syntheticEngine(t testing.TB, rows int, seed int64) (*Engine, Query, datagen.GroundTruth) {
	t.Helper()
	cfg := datagen.DefaultSynthetic("syn", rows, seed)
	tb, gt, err := datagen.Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.NewCatalog()
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	return New(engine.NewExecutor(cat)), Query{Table: "syn", Predicate: gt.Predicate}, gt
}

// TestPlantedViewsRankTop reproduces E14's correctness side: the two
// planted deviations must be the top-ranked dimensions.
func TestPlantedViewsRankTop(t *testing.T) {
	e, q, gt := syntheticEngine(t, 20000, 21)
	opts := DefaultOptions()
	opts.K = 4
	// Ground truth is defined on dimension-side views; binned views of
	// the planted measures expose the same deviations from the measure
	// side and would legitimately outrank them.
	opts.BinContinuousDims = false
	res, err := e.Recommend(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	plantedDims := map[string]bool{}
	for _, d := range gt.PlantedViews {
		plantedDims[d.Dim] = true
	}
	// The top len(planted) distinct dimensions should be the planted
	// ones.
	seen := map[string]bool{}
	var topDims []string
	for _, r := range res.Recommendations {
		d := r.Data.View.Dimension
		if !seen[d] {
			seen[d] = true
			topDims = append(topDims, d)
		}
		if len(topDims) == len(plantedDims) {
			break
		}
	}
	for _, d := range topDims {
		if !plantedDims[d] {
			t.Errorf("top dimension %q is not planted (planted: d1, d2); top recs: %v", d, topDims)
		}
	}
}

// allScoresMap keys utilities by view.
func allScoresMap(res *Result) map[string]float64 {
	out := map[string]float64{}
	for _, s := range res.AllScores {
		out[s.View.Key()] = s.Utility
	}
	return out
}

// TestOptimizerEquivalence is the central invariant: every optimizer
// configuration must produce the same utilities (within float
// tolerance) as the basic framework. The optimizations only change
// HOW the views are computed, never WHAT they compute.
func TestOptimizerEquivalence(t *testing.T) {
	e, q, _ := syntheticEngine(t, 8000, 33)
	ctx := context.Background()

	base := BasicOptions()
	base.K = 10
	base.AggFuncs = []engine.AggFunc{engine.AggSum, engine.AggCount, engine.AggAvg, engine.AggMin, engine.AggMax}
	baseRes, err := e.Recommend(ctx, q, base)
	if err != nil {
		t.Fatal(err)
	}
	baseScores := allScoresMap(baseRes)
	if len(baseScores) == 0 {
		t.Fatal("no views scored")
	}

	variants := map[string]func(*Options){
		"combine-target-comparison": func(o *Options) { o.CombineTargetComparison = true },
		"combine-aggregates": func(o *Options) {
			o.CombineAggregates = true
		},
		"grouping-sets": func(o *Options) {
			o.CombineAggregates = true
			o.CombineGroupBys = CombineGroupingSets
		},
		"grouping-sets-small-budget": func(o *Options) {
			o.CombineAggregates = true
			o.CombineGroupBys = CombineGroupingSets
			o.GroupBudget = 25
		},
		"composite-key": func(o *Options) {
			o.CombineAggregates = true
			o.CombineGroupBys = CombineCompositeKey
			o.GroupBudget = 200
		},
		"composite-key-ffd": func(o *Options) {
			o.CombineAggregates = true
			o.CombineGroupBys = CombineCompositeKey
			o.GroupBudget = 200
			o.ExactPacking = false
		},
		"parallel": func(o *Options) {
			o.CombineAggregates = true
			o.CombineGroupBys = CombineGroupingSets
			o.Parallelism = 8
		},
		"all-optimizations": func(o *Options) {
			o.CombineTargetComparison = true
			o.CombineAggregates = true
			o.CombineGroupBys = CombineGroupingSets
			o.Parallelism = 8
		},
	}
	for name, mutate := range variants {
		t.Run(name, func(t *testing.T) {
			opts := BasicOptions()
			opts.K = 10
			opts.AggFuncs = base.AggFuncs
			mutate(&opts)
			res, err := e.Recommend(ctx, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			scores := allScoresMap(res)
			if len(scores) != len(baseScores) {
				t.Fatalf("scored %d views, want %d", len(scores), len(baseScores))
			}
			for key, want := range baseScores {
				got, ok := scores[key]
				if !ok {
					t.Fatalf("view %q missing", key)
				}
				if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
					t.Errorf("view %q utility = %v, want %v", key, got, want)
				}
			}
			// Top recommendation must agree.
			if res.Recommendations[0].Data.View != baseRes.Recommendations[0].Data.View {
				t.Errorf("top view %v differs from baseline %v",
					res.Recommendations[0].Data.View, baseRes.Recommendations[0].Data.View)
			}
		})
	}
}

// TestOptimizationsReduceScans verifies the mechanism behind the
// speedups: combined plans issue far fewer queries and scans.
func TestOptimizationsReduceScans(t *testing.T) {
	e, q, _ := syntheticEngine(t, 4000, 5)
	ctx := context.Background()

	basic := BasicOptions()
	basic.K = 5
	resBasic, err := e.Recommend(ctx, q, basic)
	if err != nil {
		t.Fatal(err)
	}

	full := DefaultOptions()
	full.K = 5
	full.PruneLowVariance = false
	full.PruneCorrelated = false
	resFull, err := e.Recommend(ctx, q, full)
	if err != nil {
		t.Fatal(err)
	}

	if resFull.Stats.QueriesIssued >= resBasic.Stats.QueriesIssued {
		t.Errorf("optimized queries (%d) should be far fewer than basic (%d)",
			resFull.Stats.QueriesIssued, resBasic.Stats.QueriesIssued)
	}
	if resFull.Stats.RowsRead >= resBasic.Stats.RowsRead {
		t.Errorf("optimized rows read (%d) should be fewer than basic (%d)",
			resFull.Stats.RowsRead, resBasic.Stats.RowsRead)
	}
	// Combining target+comparison alone halves queries: 1 per view
	// group rather than 2.
	half := BasicOptions()
	half.K = 5
	half.CombineTargetComparison = true
	resHalf, err := e.Recommend(ctx, q, half)
	if err != nil {
		t.Fatal(err)
	}
	// basic: 2 queries per view; half: 1 per view. The target count
	// rides a view query on both sides.
	gotRatio := float64(resHalf.Stats.QueriesIssued) / float64(resBasic.Stats.QueriesIssued)
	if gotRatio != 0.5 {
		t.Errorf("combine-target-comparison query ratio = %v, want 0.5", gotRatio)
	}
}

// countingBackend counts the backend calls a Recommend makes.
type countingBackend struct {
	Backend
	runs, scans atomic.Int64
}

func (b *countingBackend) Run(ctx context.Context, q *engine.Query) (*engine.Result, error) {
	b.runs.Add(1)
	return b.Backend.Run(ctx, q)
}

func (b *countingBackend) RunSharedScan(ctx context.Context, q *engine.Query, gsets []engine.GroupingSet) ([]*engine.Result, error) {
	b.scans.Add(1)
	return b.Backend.RunSharedScan(ctx, q, gsets)
}

// mapCache is the smallest ExecCache: it keeps every cacheable result.
type mapCache struct {
	mu sync.Mutex
	m  map[string][]*engine.Result
}

func (c *mapCache) GetOrCompute(ctx context.Context, key string, compute func() ([]*engine.Result, bool, error)) ([]*engine.Result, error) {
	c.mu.Lock()
	res, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		return res, nil
	}
	res, cacheable, err := compute()
	if err == nil && cacheable {
		c.mu.Lock()
		c.m[key] = res
		c.mu.Unlock()
	}
	return res, err
}

// TestOneBackendCallPerRecommend pins the accounting of a Recommend
// whose target count rides the plan's first scan: DefaultOptions is one
// backend call and one table scan, an exec-cache-hit repeat is none,
// and |D_Q| is the exact count on every execution path — combined or
// two-sided, target-only operators, phased (summed over the phases) and
// sampled (the one path that still counts with a call of its own).
func TestOneBackendCallPerRecommend(t *testing.T) {
	e, q, _ := syntheticEngine(t, 5000, 11)
	ctx := context.Background()
	want, err := e.Executor().Run(ctx, &engine.Query{Table: q.Table, Where: q.Predicate, Aggs: []engine.AggSpec{{Func: engine.AggCount}}})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := want.Rows[0][0].I
	be := &countingBackend{Backend: e.Backend()}
	e.SetBackend(be)

	recommend := func(name string, opts Options, runs, scans int64) *Result {
		t.Helper()
		be.runs.Store(0)
		be.scans.Store(0)
		res, err := e.Recommend(ctx, q, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.TargetRowCount != wantRows {
			t.Errorf("%s: TargetRowCount = %d, want %d", name, res.TargetRowCount, wantRows)
		}
		if got := [2]int64{be.runs.Load(), be.scans.Load()}; got != [2]int64{runs, scans} {
			t.Errorf("%s: Run/RunSharedScan calls = %v, want [%d %d]", name, got, runs, scans)
		}
		return res
	}

	res := recommend("default", DefaultOptions(), 0, 1)
	if res.Stats.QueriesIssued != 1 || res.Stats.TableScans != 1 {
		t.Errorf("default: queries/scans = %d/%d, want 1/1", res.Stats.QueriesIssued, res.Stats.TableScans)
	}

	e.SetCache(&mapCache{m: map[string][]*engine.Result{}})
	recommend("default, cold cache", DefaultOptions(), 0, 1)
	res = recommend("default, cached repeat", DefaultOptions(), 0, 0)
	if res.Stats.QueriesIssued != 0 || res.Stats.TableScans != 0 || res.Stats.RowsRead != 0 {
		t.Errorf("cached repeat: queries/scans/rows = %d/%d/%d, want 0/0/0", res.Stats.QueriesIssued, res.Stats.TableScans, res.Stats.RowsRead)
	}
	e.SetCache(nil)

	twoSided := DefaultOptions()
	twoSided.CombineTargetComparison = false
	recommend("two-sided", twoSided, 0, 2)
	targetOnly := twoSided
	targetOnly.Operator = "outlier"
	recommend("target-only operator", targetOnly, 0, 1)
	phased := DefaultOptions()
	phased.Phases = 4
	recommend("phased", phased, 0, 4)
	sampled := DefaultOptions()
	sampled.SampleFraction, sampled.SampleMinRows = 0.5, 0
	recommend("sampled", sampled, 1, 1)
}

func TestSamplingApproximation(t *testing.T) {
	e, q, _ := syntheticEngine(t, 30000, 17)
	ctx := context.Background()

	exact := DefaultOptions()
	exact.K = 5
	// Binned numeric dims produce sparse tail buckets whose AVG views
	// are high-variance under sampling; this test checks sampling on
	// the categorical dimensions (E8 covers the rest with MAE).
	exact.BinContinuousDims = false
	exactRes, err := e.Recommend(ctx, q, exact)
	if err != nil {
		t.Fatal(err)
	}

	sampled := exact
	sampled.K = 5
	sampled.SampleFraction = 0.3
	sampled.SampleMinRows = 1000
	sampled.SampleSeed = 42
	sampledRes, err := e.Recommend(ctx, q, sampled)
	if err != nil {
		t.Fatal(err)
	}
	if !sampledRes.Stats.Sampled || sampledRes.Stats.SampleFraction != 0.3 {
		t.Error("sampling flags not recorded")
	}
	if exactRes.Stats.Sampled {
		t.Error("exact run must not be flagged sampled")
	}

	// Top view must survive sampling at 30%; utilities approximate.
	if sampledRes.Recommendations[0].Data.View != exactRes.Recommendations[0].Data.View {
		t.Errorf("sampled top view %v != exact %v",
			sampledRes.Recommendations[0].Data.View, exactRes.Recommendations[0].Data.View)
	}
	// Per-view sampling noise can be material for near-flat views (the
	// target side has only ~|D_Q|·fraction rows); check a loose
	// per-view cap plus a tight mean absolute error.
	exactScores := allScoresMap(exactRes)
	var mae float64
	var n int
	for _, s := range sampledRes.AllScores {
		if w, ok := exactScores[s.View.Key()]; ok {
			diff := math.Abs(s.Utility - w)
			if diff > 0.35 {
				t.Errorf("sampled utility for %v = %v, exact %v (too far)", s.View, s.Utility, w)
			}
			mae += diff
			n++
		}
	}
	if n > 0 && mae/float64(n) > 0.1 {
		t.Errorf("mean absolute sampling error = %v, want < 0.1", mae/float64(n))
	}
	// Below the row threshold, sampling must not kick in.
	small := exact
	small.SampleFraction = 0.3
	small.SampleMinRows = 1_000_000
	smallRes, err := e.Recommend(ctx, q, small)
	if err != nil {
		t.Fatal(err)
	}
	if smallRes.Stats.Sampled {
		t.Error("sampling must respect SampleMinRows")
	}
}

func TestPhasedMatchesExact(t *testing.T) {
	e, q, _ := syntheticEngine(t, 10000, 3)
	ctx := context.Background()

	exact := DefaultOptions()
	exact.K = 5
	exact.AggFuncs = []engine.AggFunc{engine.AggSum, engine.AggCount, engine.AggMin, engine.AggMax}
	exactRes, err := e.Recommend(ctx, q, exact)
	if err != nil {
		t.Fatal(err)
	}

	phased := exact
	phased.Phases = 8
	phased.PhaseConfidence = 0.95
	phasedRes, err := e.Recommend(ctx, q, phased)
	if err != nil {
		t.Fatal(err)
	}

	// Surviving views must have EXACT utilities (phases partition the
	// data; merging is lossless for these aggregates).
	exactScores := allScoresMap(exactRes)
	for _, s := range phasedRes.AllScores {
		w, ok := exactScores[s.View.Key()]
		if !ok {
			t.Fatalf("phased scored unknown view %v", s.View)
		}
		if math.Abs(s.Utility-w) > 1e-6*(1+w) {
			t.Errorf("phased utility %v = %v, exact %v", s.View, s.Utility, w)
		}
	}
	// Top-k must be identical.
	if len(phasedRes.Recommendations) != len(exactRes.Recommendations) {
		t.Fatalf("phased returned %d recs, exact %d", len(phasedRes.Recommendations), len(exactRes.Recommendations))
	}
	for i := range exactRes.Recommendations {
		if phasedRes.Recommendations[i].Data.View != exactRes.Recommendations[i].Data.View {
			t.Errorf("rank %d: phased %v, exact %v", i+1,
				phasedRes.Recommendations[i].Data.View, exactRes.Recommendations[i].Data.View)
		}
	}
}

func TestPhasedRejectsUnmergeableAggregates(t *testing.T) {
	e, q, _ := syntheticEngine(t, 1000, 3)
	opts := DefaultOptions()
	opts.Phases = 4
	opts.AggFuncs = []engine.AggFunc{engine.AggVariance}
	if _, err := e.Recommend(context.Background(), q, opts); err == nil {
		t.Error("phased VAR must error (not partition-mergeable without sum-of-squares partials)")
	}
}

// TestPhasedAvgMatchesExact: AVG views are carried through phases as
// SUM+COUNT pairs, so phased utilities match single-pass execution
// exactly (phases partition the table; the partials merge losslessly).
func TestPhasedAvgMatchesExact(t *testing.T) {
	e, q, _ := syntheticEngine(t, 4000, 7)
	opts := DefaultOptions()
	opts.AggFuncs = []engine.AggFunc{engine.AggAvg}
	opts.PruneLowVariance = false
	opts.PruneCorrelated = false
	exact, err := e.Recommend(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Phases = 4
	opts.PhaseConfidence = 0.9999 // keep every view so scores are comparable
	phased, err := e.Recommend(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	exactScores := allScoresMap(exact)
	if len(phased.AllScores) == 0 {
		t.Fatal("phased AVG produced no views")
	}
	for _, s := range phased.AllScores {
		w, ok := exactScores[s.View.Key()]
		if !ok {
			t.Fatalf("phased scored unknown view %v", s.View)
		}
		if math.Abs(s.Utility-w) > 1e-9*(1+w) {
			t.Errorf("phased AVG utility %v = %v, exact %v", s.View, s.Utility, w)
		}
	}
}

func TestRecommendErrors(t *testing.T) {
	e, q, _ := syntheticEngine(t, 500, 3)
	ctx := context.Background()

	opts := DefaultOptions()
	opts.K = 0
	if _, err := e.Recommend(ctx, q, opts); err == nil {
		t.Error("K=0 must error")
	}
	opts = DefaultOptions()
	opts.Metric = "nope"
	if _, err := e.Recommend(ctx, q, opts); err == nil {
		t.Error("unknown metric must error")
	}
	if _, err := e.Recommend(ctx, Query{Table: "missing"}, DefaultOptions()); err == nil {
		t.Error("missing table must error")
	}
	empty := Query{Table: "syn", Predicate: engine.Eq("d0", engine.String("no-such-value"))}
	if _, err := e.Recommend(ctx, empty, DefaultOptions()); err == nil {
		t.Error("empty D_Q must error")
	}
	badPred := Query{Table: "syn", Predicate: engine.Eq("nope", engine.Int(1))}
	if _, err := e.Recommend(ctx, badPred, DefaultOptions()); err == nil {
		t.Error("unbindable predicate must error")
	}
}

func TestRecommendAllPruned(t *testing.T) {
	// A table whose only dimension is constant: variance pruning
	// eliminates everything.
	tb := engine.MustNewTable("c", engine.Schema{
		{Name: "d", Type: engine.TypeString},
		{Name: "m", Type: engine.TypeFloat},
	})
	for i := 0; i < 100; i++ {
		_ = tb.AppendRow(engine.String("only"), engine.Float(float64(i)))
	}
	cat := engine.NewCatalog()
	_ = cat.Register(tb)
	e := New(engine.NewExecutor(cat))
	_, err := e.Recommend(context.Background(), Query{Table: "c"}, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "pruned") {
		t.Errorf("all-pruned should error helpfully, got %v", err)
	}
}

func TestIncludeWorstViews(t *testing.T) {
	e, q, _ := syntheticEngine(t, 5000, 7)
	opts := DefaultOptions()
	opts.K = 3
	opts.IncludeWorst = 2
	res, err := e.Recommend(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WorstViews) != 2 {
		t.Fatalf("worst views = %d, want 2", len(res.WorstViews))
	}
	// Worst views must score below all recommendations.
	minTop := res.Recommendations[len(res.Recommendations)-1].Data.Utility
	for _, w := range res.WorstViews {
		if w.Data.Utility > minTop {
			t.Errorf("worst view %v utility %v exceeds weakest recommendation %v",
				w.Data.View, w.Data.Utility, minTop)
		}
	}
	// Worst list is worst-first.
	if len(res.WorstViews) == 2 && res.WorstViews[0].Data.Utility > res.WorstViews[1].Data.Utility {
		t.Error("worst views must be ordered worst-first")
	}
}

func TestRecommendationPackaging(t *testing.T) {
	e, q, _ := syntheticEngine(t, 2000, 9)
	opts := DefaultOptions()
	opts.K = 3
	res, err := e.Recommend(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric != "emd" {
		t.Errorf("metric = %q", res.Metric)
	}
	for i, r := range res.Recommendations {
		if r.Rank != i+1 {
			t.Errorf("rank %d mislabeled as %d", i+1, r.Rank)
		}
		if !strings.Contains(r.TargetSQL, "WHERE d0 = 'd0_v0'") {
			t.Errorf("TargetSQL = %q missing predicate", r.TargetSQL)
		}
		if strings.Contains(r.ComparisonSQL, "WHERE") {
			t.Errorf("ComparisonSQL = %q must not filter", r.ComparisonSQL)
		}
		if len(r.Data.Keys) == 0 || len(r.Data.Target) != len(r.Data.Keys) {
			t.Error("view data incomplete")
		}
	}
	// AllScores descending.
	for i := 1; i < len(res.AllScores); i++ {
		if res.AllScores[i].Utility > res.AllScores[i-1].Utility {
			t.Error("AllScores must be sorted descending")
		}
	}
	if res.Stats.ElapsedMillis <= 0 {
		t.Error("elapsed time not recorded")
	}
	if res.Stats.CandidateViews <= 0 || res.Stats.ExecutedViews <= 0 {
		t.Errorf("stats incomplete: %+v", res.Stats)
	}
}

func TestRecommendOnRealisticDatasets(t *testing.T) {
	cases := []struct {
		name  string
		table *engine.Table
		query Query
		// expectDim must be the top-ranked dimension once structural
		// dims (hierarchical children of the filter attribute, whose
		// deviation is implied by the filter itself) are set aside.
		expectDim  string
		structural map[string]bool
	}{
		{
			name:  "superstore-furniture",
			table: datagen.Superstore("orders", 20000, 42),
			query: Query{Table: "orders", Predicate: engine.Eq("category", engine.String("Furniture"))},
			// Planted: furniture profit by region deviates wildly.
			// subcategory is structural (the Furniture subset contains
			// only Furniture subcategories); the binned numeric dims
			// (discount/profit/sales) carry their own planted
			// deviations, so region must lead among the remaining
			// categorical dimensions.
			expectDim:  "region",
			structural: map[string]bool{"subcategory": true},
		},
		{
			name:       "elections-democratic",
			table:      datagen.Elections("fec", 20000, 42),
			query:      Query{Table: "fec", Predicate: engine.Eq("party", engine.String("Democratic"))},
			expectDim:  "state",
			structural: map[string]bool{"candidate": true}, // candidates belong to one party
		},
		{
			name:       "medical-sepsis",
			table:      datagen.Medical("mimic", 20000, 42),
			query:      Query{Table: "mimic", Predicate: engine.Eq("diagnosis_group", engine.String("Sepsis"))},
			expectDim:  "age_bucket",
			structural: map[string]bool{"ward": true}, // sepsis→ICU skew is also planted
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat := engine.NewCatalog()
			if err := cat.Register(tc.table); err != nil {
				t.Fatal(err)
			}
			e := New(engine.NewExecutor(cat))
			opts := DefaultOptions()
			opts.K = 8
			res, err := e.Recommend(context.Background(), tc.query, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Recommendations) == 0 {
				t.Fatal("no recommendations")
			}
			// First categorical (unbinned) dimension outside the
			// structural set; binned numeric dims carry their own
			// planted deviations and are checked by E14 instead.
			var firstDim string
			for _, s := range res.AllScores {
				if s.View.BinWidth == 0 && !tc.structural[s.View.Dimension] {
					firstDim = s.View.Dimension
					break
				}
			}
			if firstDim != tc.expectDim {
				var dims []string
				for i, s := range res.AllScores {
					if i >= 8 {
						break
					}
					dims = append(dims, fmt.Sprintf("%s(%.3f)", s.View, s.Utility))
				}
				t.Errorf("top non-structural dimension = %q, want %q; top views: %v", firstDim, tc.expectDim, dims)
			}
		})
	}
}

func TestRecommendContextCancellation(t *testing.T) {
	e, q, _ := syntheticEngine(t, 50000, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Recommend(ctx, q, DefaultOptions()); err == nil {
		t.Error("cancelled context must abort Recommend")
	}
}

func TestMetricBound(t *testing.T) {
	if metricBound("emd", 10) != 9 {
		t.Error("emd bound = card-1")
	}
	if metricBound("emd", 1) != 1 {
		t.Error("emd bound floor")
	}
	if metricBound("euclidean", 5) != math.Sqrt2 {
		t.Error("euclidean bound")
	}
	if metricBound("js", 5) != math.Sqrt(math.Ln2) {
		t.Error("js bound")
	}
	if metricBound("l1", 5) != 2 {
		t.Error("l1 bound")
	}
	if metricBound("kl", 5) <= 0 {
		t.Error("kl bound")
	}
	if metricBound("custom", 5) != 2 {
		t.Error("default bound")
	}
}

func TestKthLargest(t *testing.T) {
	type s struct{ v float64 }
	items := []s{{3}, {1}, {4}, {1}, {5}}
	if got := kthLargest(items, 1, func(x s) float64 { return x.v }); got != 5 {
		t.Errorf("1st = %v", got)
	}
	if got := kthLargest(items, 3, func(x s) float64 { return x.v }); got != 3 {
		t.Errorf("3rd = %v", got)
	}
	if got := kthLargest(items, 99, func(x s) float64 { return x.v }); got != 1 {
		t.Errorf("clamped = %v", got)
	}
}

// TestConcurrentRecommendStatsAreOwn: QueriesIssued, TableScans and
// RowsRead count the call's own scans. Two different requests on one
// engine, run at the same time, each report exactly what they report
// alone — never a share of the other's work.
func TestConcurrentRecommendStatsAreOwn(t *testing.T) {
	syn, gt, err := datagen.Synthetic(datagen.DefaultSynthetic("synthetic", 20000, 7))
	if err != nil {
		t.Fatal(err)
	}
	cat := engine.NewCatalog()
	for _, tb := range []*engine.Table{datagen.Superstore("orders", 20000, 42), syn} {
		if err := cat.Register(tb); err != nil {
			t.Fatal(err)
		}
	}
	e := New(engine.NewExecutor(cat))
	queries := []Query{
		{Table: "orders", Predicate: engine.Eq("category", engine.String("Furniture"))},
		{Table: "synthetic", Predicate: gt.Predicate},
	}
	run := func(q Query) [3]int64 {
		res, err := e.Recommend(context.Background(), q, DefaultOptions())
		if err != nil {
			t.Error(err)
			return [3]int64{}
		}
		return [3]int64{res.Stats.QueriesIssued, res.Stats.TableScans, res.Stats.RowsRead}
	}
	solo := [2][3]int64{run(queries[0]), run(queries[1])}
	for trial := 0; trial < 10; trial++ {
		var got [2][3]int64
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[i] = run(q)
			}()
		}
		close(start)
		wg.Wait()
		if got != solo {
			t.Fatalf("trial %d: concurrent queries/scans/rows = %v, solo %v", trial, got, solo)
		}
	}
}
