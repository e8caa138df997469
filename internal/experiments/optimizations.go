package experiments

import (
	"context"
	"fmt"
	"time"

	"seedb/internal/core"
	"seedb/internal/datagen"
	"seedb/internal/engine"
)

// reps returns the repetition count for timing medians.
func reps(cfg Config) int {
	if cfg.Quick {
		return 1
	}
	return 3
}

// recommendTimed runs Recommend and returns the result plus the median
// wall time over reps runs.
func recommendTimed(cfg Config, e *core.Engine, q core.Query, opts core.Options) (*core.Result, time.Duration, error) {
	var res *core.Result
	d, err := medianTime(reps(cfg), func() error {
		var err error
		res, err = e.Recommend(context.Background(), q, opts)
		return err
	})
	return res, d, err
}

// stdOpts returns the baseline option set used by the optimization
// experiments: pruning off (so every configuration computes the same
// views) and a fixed aggregate list.
func stdOpts() core.Options {
	o := core.BasicOptions()
	o.K = 10
	o.AggFuncs = []engine.AggFunc{engine.AggSum, engine.AggCount, engine.AggAvg}
	return o
}

// ---------------------------------------------------------------------
// E4 — basic vs optimized

func runE4(cfg Config) (*Report, error) {
	r := &Report{
		ID:         "E4",
		Title:      "Basic framework (independent view queries) vs fully optimized SeeDB",
		PaperClaim: "the basic approach is clearly inefficient; the optimizations fix this (§3.3)",
		Headers:    []string{"rows", "basic ms", "optimized ms", "speedup", "basic queries", "opt queries", "basic rows read", "opt rows read"},
	}
	sizes := []int{cfg.rows(200_000) / 4, cfg.rows(200_000) / 2, cfg.rows(200_000)}
	if cfg.Quick {
		sizes = []int{cfg.rows(10_000)}
	}
	for _, rows := range sizes {
		e, q, _, err := synEngine(datagen.DefaultSynthetic("e4", rows, cfg.Seed))
		if err != nil {
			return nil, err
		}
		basic := stdOpts()
		resBasic, dBasic, err := recommendTimed(cfg, e, q, basic)
		if err != nil {
			return nil, err
		}
		opt := stdOpts()
		opt.CombineTargetComparison = true
		opt.CombineAggregates = true
		opt.CombineGroupBys = core.CombineGroupingSets
		opt.Parallelism = 0 // GOMAXPROCS
		resOpt, dOpt, err := recommendTimed(cfg, e, q, opt)
		if err != nil {
			return nil, err
		}
		r.addRow(
			fmt.Sprintf("%d", rows),
			ms(dBasic), ms(dOpt),
			fmt.Sprintf("%.1fx", float64(dBasic)/float64(dOpt)),
			fmt.Sprintf("%d", resBasic.Stats.QueriesIssued),
			fmt.Sprintf("%d", resOpt.Stats.QueriesIssued),
			fmt.Sprintf("%d", resBasic.Stats.RowsRead),
			fmt.Sprintf("%d", resOpt.Stats.RowsRead))
	}
	r.notef("all optimizations together collapse ~2·|views| scans into a handful of shared scans")
	return r, nil
}

// ---------------------------------------------------------------------
// E5 — combine target & comparison

func runE5(cfg Config) (*Report, error) {
	r := &Report{
		ID:         "E5",
		Title:      "Combining each view's target and comparison query into one conditional-aggregation scan",
		PaperClaim: "this simple optimization halves the time required to compute the results for a single view (§3.3)",
		Headers:    []string{"rows", "separate ms", "combined ms", "speedup", "separate scans", "combined scans"},
	}
	sizes := []int{cfg.rows(200_000) / 2, cfg.rows(200_000)}
	if cfg.Quick {
		sizes = []int{cfg.rows(10_000)}
	}
	for _, rows := range sizes {
		e, q, _, err := synEngine(datagen.DefaultSynthetic("e5", rows, cfg.Seed))
		if err != nil {
			return nil, err
		}
		sep := stdOpts()
		resSep, dSep, err := recommendTimed(cfg, e, q, sep)
		if err != nil {
			return nil, err
		}
		comb := stdOpts()
		comb.CombineTargetComparison = true
		resComb, dComb, err := recommendTimed(cfg, e, q, comb)
		if err != nil {
			return nil, err
		}
		r.addRow(
			fmt.Sprintf("%d", rows),
			ms(dSep), ms(dComb),
			fmt.Sprintf("%.2fx", float64(dSep)/float64(dComb)),
			fmt.Sprintf("%d", resSep.Stats.TableScans),
			fmt.Sprintf("%d", resComb.Stats.TableScans))
	}
	r.notef("scan counts halve exactly (2·views → views; the target count rides the first view's scan); wall-clock speedup approaches 2x as scans dominate")
	return r, nil
}

// ---------------------------------------------------------------------
// E6 — combine multiple aggregates

func runE6(cfg Config) (*Report, error) {
	r := &Report{
		ID:         "E6",
		Title:      "Combining view queries that share a group-by attribute (multiple aggregates per query)",
		PaperClaim: "this rewriting provides a speed up linear in the number of aggregate attributes (§3.3)",
		Headers:    []string{"measures", "independent ms", "combined ms", "speedup", "independent queries", "combined queries"},
	}
	counts := []int{1, 2, 4, 6, 8, 10}
	if cfg.Quick {
		counts = []int{1, 2, 4}
	}
	rows := cfg.rows(200_000) / 2
	if cfg.Quick {
		rows = cfg.rows(10_000)
	}
	for _, m := range counts {
		synth := datagen.SyntheticConfig{
			Name: "e6", Rows: rows, Seed: cfg.Seed, TargetFraction: 0.1,
			Dims: []datagen.DimSpec{{Name: "d0", Card: 10}, {Name: "d1", Card: 10}, {Name: "d2", Card: 10}},
		}
		for i := 0; i < m; i++ {
			synth.Measures = append(synth.Measures, datagen.MeasureSpec{Name: fmt.Sprintf("m%d", i), Mean: 100, Stddev: 20})
		}
		e, q, _, err := synEngine(synth)
		if err != nil {
			return nil, err
		}
		indep := stdOpts()
		indep.AggFuncs = []engine.AggFunc{engine.AggSum}
		indep.CombineTargetComparison = true // isolate aggregate combining
		resIndep, dIndep, err := recommendTimed(cfg, e, q, indep)
		if err != nil {
			return nil, err
		}
		comb := indep
		comb.CombineAggregates = true
		resComb, dComb, err := recommendTimed(cfg, e, q, comb)
		if err != nil {
			return nil, err
		}
		r.addRow(
			fmt.Sprintf("%d", m),
			ms(dIndep), ms(dComb),
			fmt.Sprintf("%.2fx", float64(dIndep)/float64(dComb)),
			fmt.Sprintf("%d", resIndep.Stats.QueriesIssued),
			fmt.Sprintf("%d", resComb.Stats.QueriesIssued))
	}
	r.notef("queries drop from dims·measures to dims; speedup grows ~linearly with the measure count")
	return r, nil
}

// ---------------------------------------------------------------------
// E7 — combine multiple group-bys

func runE7(cfg Config) (*Report, error) {
	r := &Report{
		ID:         "E7",
		Title:      "Combining queries with different group-by attributes under a memory (group) budget",
		PaperClaim: "model as a variant of bin-packing and apply ILP techniques; number of combinable views depends on memory (§3.3)",
		Headers:    []string{"strategy", "budget (groups)", "queries", "ms", "top-1 unchanged"},
	}
	rows := cfg.rows(200_000) / 2
	if cfg.Quick {
		rows = cfg.rows(10_000)
	}
	synth := datagen.SyntheticConfig{
		Name: "e7", Rows: rows, Seed: cfg.Seed, TargetFraction: 0.1,
		Deviations: []datagen.Deviation{{Dim: "d1", Measure: "m0", Strength: 2}},
	}
	for i := 0; i < 12; i++ {
		card := 10 + 10*(i%4)
		synth.Dims = append(synth.Dims, datagen.DimSpec{Name: fmt.Sprintf("d%d", i), Card: card})
	}
	synth.Measures = []datagen.MeasureSpec{{Name: "m0", Mean: 100, Stddev: 20}, {Name: "m1", Mean: 50, Stddev: 10}}
	e, q, _, err := synEngine(synth)
	if err != nil {
		return nil, err
	}
	base := stdOpts()
	base.AggFuncs = []engine.AggFunc{engine.AggSum, engine.AggCount}
	base.CombineTargetComparison = true
	base.CombineAggregates = true

	refRes, _, err := recommendTimed(cfg, e, q, base)
	if err != nil {
		return nil, err
	}
	refTop := refRes.Recommendations[0].Data.View

	type variant struct {
		name   string
		mode   core.CombineMode
		budget int
		exact  bool
	}
	variants := []variant{
		{"none (one query per dim)", core.CombineNone, 0, true},
		{"grouping-sets", core.CombineGroupingSets, 60, true},
		{"grouping-sets", core.CombineGroupingSets, 200, true},
		{"grouping-sets", core.CombineGroupingSets, 1_000_000, true},
		{"composite-key (ILP)", core.CombineCompositeKey, 2_000, true},
		{"composite-key (FFD)", core.CombineCompositeKey, 2_000, false},
		{"composite-key (ILP)", core.CombineCompositeKey, 100_000, true},
	}
	for _, v := range variants {
		opts := base
		opts.CombineGroupBys = v.mode
		if v.budget > 0 {
			opts.GroupBudget = v.budget
		}
		opts.ExactPacking = v.exact
		res, d, err := recommendTimed(cfg, e, q, opts)
		if err != nil {
			return nil, err
		}
		budget := "-"
		if v.mode != core.CombineNone {
			budget = fmt.Sprintf("%d", v.budget)
		}
		r.addRow(v.name, budget,
			fmt.Sprintf("%d", res.Stats.QueriesIssued),
			ms(d),
			fmt.Sprintf("%v", res.Recommendations[0].Data.View == refTop))
	}
	r.notef("larger budgets pack more dimensions per scan → fewer queries; composite keys trade hash-table size for scans; results identical in all variants")
	return r, nil
}

// ---------------------------------------------------------------------
// E8 — sampling

func runE8(cfg Config) (*Report, error) {
	r := &Report{
		ID:         "E8",
		Title:      "Bernoulli sampling: latency vs view accuracy",
		PaperClaim: "sampling affects performance significantly; technique and size affect view accuracy (§3.3)",
		Headers:    []string{"fraction", "ms", "top-5 Jaccard vs exact", "mean |U - U_exact|", "top-1 unchanged"},
	}
	rows := cfg.rows(200_000)
	if cfg.Quick {
		rows = cfg.rows(10_000) * 3
	}
	e, q, _, err := synEngine(datagen.DefaultSynthetic("e8", rows, cfg.Seed))
	if err != nil {
		return nil, err
	}
	opt := stdOpts()
	opt.CombineTargetComparison = true
	opt.CombineAggregates = true
	opt.CombineGroupBys = core.CombineGroupingSets
	opt.K = 5
	// Sampling accuracy is measured over the categorical view space:
	// binned numeric dims add sparse tail buckets whose membership
	// changes under sampling, which measures bin stability rather than
	// utility estimation.
	opt.BinContinuousDims = false

	exactRes, dExact, err := recommendTimed(cfg, e, q, opt)
	if err != nil {
		return nil, err
	}
	exactTop := topViews(exactRes, 5)
	exactScores := map[string]float64{}
	for _, s := range exactRes.AllScores {
		exactScores[s.View.Key()] = s.Utility
	}
	r.addRow("1.00 (exact)", ms(dExact), "1.00", "0.0000", "true")

	fractions := []float64{0.5, 0.2, 0.1, 0.05, 0.01}
	if cfg.Quick {
		fractions = []float64{0.5, 0.1}
	}
	for _, f := range fractions {
		opts := opt
		opts.SampleFraction = f
		opts.SampleMinRows = 0
		opts.SampleSeed = uint64(cfg.Seed)
		res, d, err := recommendTimed(cfg, e, q, opts)
		if err != nil {
			return nil, err
		}
		var mae float64
		var n int
		for _, s := range res.AllScores {
			if w, ok := exactScores[s.View.Key()]; ok {
				diff := s.Utility - w
				if diff < 0 {
					diff = -diff
				}
				mae += diff
				n++
			}
		}
		if n > 0 {
			mae /= float64(n)
		}
		r.addRow(
			fmt.Sprintf("%.2f", f),
			ms(d),
			fmt.Sprintf("%.2f", jaccard(exactTop, topViews(res, 5))),
			fmt.Sprintf("%.4f", mae),
			fmt.Sprintf("%v", res.Recommendations[0].Data.View == exactRes.Recommendations[0].Data.View))
	}
	r.notef("latency falls roughly with the fraction; utility error grows as the sampled subset shrinks (|D_Q|·fraction rows feed the target side)")
	return r, nil
}

func topViews(res *core.Result, k int) []string {
	var out []string
	for i, rec := range res.Recommendations {
		if i >= k {
			break
		}
		out = append(out, rec.Data.View.Key())
	}
	return out
}

// ---------------------------------------------------------------------
// E9 — parallel execution

func runE9(cfg Config) (*Report, error) {
	r := &Report{
		ID:         "E9",
		Title:      "Parallel view-query execution",
		PaperClaim: "as queries run in parallel, total latency decreases at the cost of increased per-query execution time (§3.3)",
		Headers:    []string{"workers", "total ms", "approx per-query ms", "queries"},
	}
	rows := cfg.rows(200_000)
	if cfg.Quick {
		rows = cfg.rows(10_000) * 2
	}
	e, q, _, err := synEngine(datagen.DefaultSynthetic("e9", rows, cfg.Seed))
	if err != nil {
		return nil, err
	}
	workers := []int{1, 2, 4, 8}
	if cfg.Quick {
		workers = []int{1, 4}
	}
	for _, w := range workers {
		opts := stdOpts()
		opts.CombineTargetComparison = true
		opts.CombineAggregates = true
		opts.CombineGroupBys = core.CombineNone // many independent queries to parallelize
		opts.Parallelism = w
		res, d, err := recommendTimed(cfg, e, q, opts)
		if err != nil {
			return nil, err
		}
		queries := res.Stats.QueriesIssued
		perQuery := float64(d.Microseconds()) / 1000 * float64(w) / float64(queries)
		r.addRow(
			fmt.Sprintf("%d", w),
			ms(d),
			fmt.Sprintf("%.2f", perQuery),
			fmt.Sprintf("%d", queries))
	}
	r.notef("total latency drops with workers while estimated per-query time (total·workers/queries) rises with contention — the paper's trade-off")
	return r, nil
}
