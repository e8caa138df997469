package experiments

import (
	"context"
	"fmt"

	"seedb/internal/core"
	"seedb/internal/datagen"
	"seedb/internal/distance"
	"seedb/internal/engine"
)

// ---------------------------------------------------------------------
// E10 — pruning strategies

func runE10(cfg Config) (*Report, error) {
	r := &Report{
		ID:         "E10",
		Title:      "View-space pruning: variance, correlation, access frequency",
		PaperClaim: "SEEDB aggressively prunes view queries unlikely to have high utility using metadata (§3.3)",
		Headers:    []string{"configuration", "candidate views", "executed views", "ms", "top-3 Jaccard vs no pruning"},
	}
	rows := cfg.rows(200_000) / 2
	if cfg.Quick {
		rows = cfg.rows(10_000)
	}
	// A schema with pruning bait: constant dims, near-constant dims,
	// correlated copies.
	synth := datagen.SyntheticConfig{
		Name: "e10", Rows: rows, Seed: cfg.Seed, TargetFraction: 0.1,
		Dims: []datagen.DimSpec{
			{Name: "d0", Card: 10},
			{Name: "d1", Card: 10},
			{Name: "d2", Card: 12},
			{Name: "d1copy", Card: 10, CorrelateWith: "d1"},
			{Name: "d2copy", Card: 12, CorrelateWith: "d2"},
			{Name: "const1", Constant: true, Card: 1},
			{Name: "const2", Constant: true, Card: 1},
			{Name: "skewed", Card: 50, Zipf: 3.5},
		},
		Measures: []datagen.MeasureSpec{
			{Name: "m0", Mean: 100, Stddev: 25},
			{Name: "m1", Mean: 50, Stddev: 10},
		},
		Deviations: []datagen.Deviation{{Dim: "d1", Measure: "m0", Strength: 2}},
	}
	e, q, _, err := synEngine(synth)
	if err != nil {
		return nil, err
	}
	base := stdOpts()
	base.CombineTargetComparison = true
	base.CombineAggregates = true
	base.CombineGroupBys = core.CombineGroupingSets
	base.K = 3

	noPrune, dNo, err := recommendTimed(cfg, e, q, base)
	if err != nil {
		return nil, err
	}
	ref := topViews(noPrune, 3)
	r.addRow("no pruning",
		fmt.Sprintf("%d", noPrune.Stats.CandidateViews),
		fmt.Sprintf("%d", noPrune.Stats.ExecutedViews),
		ms(dNo), "1.00")

	type variant struct {
		name string
		mut  func(*core.Options)
	}
	variants := []variant{
		{"variance pruning", func(o *core.Options) { o.PruneLowVariance = true; o.VarianceMinEntropy = 0.02 }},
		{"correlation pruning", func(o *core.Options) { o.PruneCorrelated = true; o.CorrelationThreshold = 0.95 }},
		{"variance + correlation", func(o *core.Options) {
			o.PruneLowVariance = true
			o.VarianceMinEntropy = 0.02
			o.PruneCorrelated = true
		}},
	}
	for _, v := range variants {
		opts := base
		v.mut(&opts)
		res, d, err := recommendTimed(cfg, e, q, opts)
		if err != nil {
			return nil, err
		}
		r.addRow(v.name,
			fmt.Sprintf("%d", res.Stats.CandidateViews),
			fmt.Sprintf("%d", res.Stats.ExecutedViews),
			ms(d),
			fmt.Sprintf("%.2f", jaccard(ref, topViews(res, 3))))
	}

	// Access-frequency pruning ranks columns by an analyst's history,
	// which SeeDB does not keep (a request's answer never depends on
	// earlier requests). The simulated analyst's profile — 200 queries
	// touching d1, d2, m0 and m1 — is given explicitly, and the
	// dimensions touched at least 30% as often as the hottest column
	// become the request's dimensions.
	profile := map[string]int64{"d1": 200, "d2": 200, "m0": 200, "m1": 200}
	var hottest int64
	for _, n := range profile {
		hottest = max(hottest, n)
	}
	opts := base
	for _, dim := range synth.Dims {
		if float64(profile[dim.Name]) >= 0.3*float64(hottest) {
			opts.Dimensions = append(opts.Dimensions, dim.Name)
		}
	}
	res, d, err := recommendTimed(cfg, e, q, opts)
	if err != nil {
		return nil, err
	}
	r.addRow("access-frequency pruning",
		fmt.Sprintf("%d", res.Stats.CandidateViews),
		fmt.Sprintf("%d", res.Stats.ExecutedViews),
		ms(d),
		fmt.Sprintf("%.2f", jaccard(ref, topViews(res, 3))))

	r.notef("pruning eliminates constant/correlated/cold attributes while the top views (driven by the planted deviation) are retained")
	return r, nil
}

// ---------------------------------------------------------------------
// E11 — metric comparison

func runE11(cfg Config) (*Report, error) {
	r := &Report{
		ID:         "E11",
		Title:      "Distance metric choice: agreement and cost",
		PaperClaim: "attendees can experiment with different distance metrics and examine how the choice affects view quality (§2)",
		Headers:    []string{"metric", "ms", "top-5 Jaccard vs EMD", "Kendall tau vs EMD", "top view"},
	}
	rows := cfg.rows(200_000) / 4
	if cfg.Quick {
		rows = cfg.rows(10_000)
	}
	cat := engine.NewCatalog()
	if err := cat.Register(datagen.Superstore("orders", rows, cfg.Seed)); err != nil {
		return nil, err
	}
	e := core.New(engine.NewExecutor(cat))
	q := core.Query{Table: "orders", Predicate: engine.Eq("category", engine.String("Furniture"))}

	rankings := map[string][]string{}
	var emdRanking []string
	for _, metric := range distance.Names() {
		opts := core.DefaultOptions()
		opts.Metric = metric
		opts.K = 5
		var res *core.Result
		d, err := medianTime(reps(cfg), func() error {
			var err error
			res, err = e.Recommend(context.Background(), q, opts)
			return err
		})
		if err != nil {
			return nil, err
		}
		var ranking []string
		for _, s := range res.AllScores {
			ranking = append(ranking, s.View.Key())
		}
		rankings[metric] = ranking
		if metric == "emd" {
			emdRanking = ranking
		}
		top := res.Recommendations[0].Data.View.String()
		r.addRow(metric, ms(d), "", "", top)
	}
	// Fill agreement columns now that EMD's ranking is known.
	for i, metric := range distance.Names() {
		rk := rankings[metric]
		top5 := rk
		if len(top5) > 5 {
			top5 = top5[:5]
		}
		emdTop5 := emdRanking
		if len(emdTop5) > 5 {
			emdTop5 = emdTop5[:5]
		}
		r.Rows[i][2] = fmt.Sprintf("%.2f", jaccard(emdTop5, top5))
		r.Rows[i][3] = fmt.Sprintf("%.2f", kendallTau(emdRanking, rk))
	}
	r.notef("metrics broadly agree on the strongest deviations; KL diverges most on sparse views (zero-mass groups)")
	return r, nil
}

// ---------------------------------------------------------------------
// E12 — phased execution with CI pruning

func runE12(cfg Config) (*Report, error) {
	r := &Report{
		ID:         "E12",
		Title:      "Phased execution with Hoeffding confidence-interval pruning (extension)",
		PaperClaim: "trade accuracy of 'interestingness' estimation for reduced latency (§1 challenge (d))",
		Headers:    []string{"phases", "ms", "views pruned early", "top-3 identical to exact"},
	}
	rows := cfg.rows(200_000)
	if cfg.Quick {
		rows = cfg.rows(10_000) * 2
	}
	synth := datagen.DefaultSynthetic("e12", rows, cfg.Seed)
	synth.Deviations = append(synth.Deviations, datagen.Deviation{Dim: "d3", Measure: "m2", Strength: 1.0})
	e, q, _, err := synEngine(synth)
	if err != nil {
		return nil, err
	}
	opts := stdOpts()
	opts.AggFuncs = []engine.AggFunc{engine.AggSum, engine.AggCount}
	opts.CombineTargetComparison = true
	opts.CombineAggregates = true
	opts.CombineGroupBys = core.CombineGroupingSets
	opts.K = 3

	exact, dExact, err := recommendTimed(cfg, e, q, opts)
	if err != nil {
		return nil, err
	}
	exactTop := topViews(exact, 3)
	r.addRow("1 (exact)", ms(dExact), "0", "true")

	phases := []int{8, 16, 32}
	if cfg.Quick {
		phases = []int{4}
	}
	for _, p := range phases {
		po := opts
		po.Phases = p
		po.PhaseConfidence = 0.95
		res, d, err := recommendTimed(cfg, e, q, po)
		if err != nil {
			return nil, err
		}
		r.addRow(
			fmt.Sprintf("%d", p),
			ms(d),
			fmt.Sprintf("%d", res.Stats.PrunedViews[core.PrunedPhased]),
			fmt.Sprintf("%v", jaccard(exactTop, topViews(res, 3)) == 1))
	}
	r.notef("more phases give earlier pruning opportunities; surviving utilities are exact because phases partition the data")
	return r, nil
}

// ---------------------------------------------------------------------
// E13 — Scenario 2 knobs

func runE13(cfg Config) (*Report, error) {
	r := &Report{
		ID:         "E13",
		Title:      "Demo Scenario 2 knobs: data size, attribute count, distribution skew",
		PaperClaim: "attendees adjust knobs such as data size, number of attributes, and data distribution (§4)",
		Headers:    []string{"knob", "value", "candidate views", "ms"},
	}
	base := cfg.rows(200_000)
	ctx := context.Background()
	opt := stdOpts()
	opt.CombineTargetComparison = true
	opt.CombineAggregates = true
	opt.CombineGroupBys = core.CombineGroupingSets
	opt.K = 5

	sizes := []int{base / 8, base / 4, base / 2, base}
	if cfg.Quick {
		sizes = []int{base / 2, base}
	}
	for _, rows := range sizes {
		e, q, _, err := synEngine(datagen.DefaultSynthetic("e13s", rows, cfg.Seed))
		if err != nil {
			return nil, err
		}
		var res *core.Result
		d, err := medianTime(reps(cfg), func() error {
			var err error
			res, err = e.Recommend(ctx, q, opt)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.addRow("rows", fmt.Sprintf("%d", rows), fmt.Sprintf("%d", res.Stats.CandidateViews), ms(d))
	}

	dims := []int{5, 10, 20}
	if cfg.Quick {
		dims = []int{5, 10}
	}
	for _, nd := range dims {
		synth := datagen.SyntheticConfig{Name: "e13a", Rows: base / 4, Seed: cfg.Seed, TargetFraction: 0.1}
		for i := 0; i < nd; i++ {
			synth.Dims = append(synth.Dims, datagen.DimSpec{Name: fmt.Sprintf("d%d", i), Card: 10})
		}
		for i := 0; i < 5; i++ {
			synth.Measures = append(synth.Measures, datagen.MeasureSpec{Name: fmt.Sprintf("m%d", i), Mean: 100, Stddev: 20})
		}
		e, q, _, err := synEngine(synth)
		if err != nil {
			return nil, err
		}
		var res *core.Result
		d, err := medianTime(reps(cfg), func() error {
			var err error
			res, err = e.Recommend(ctx, q, opt)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.addRow("dimensions", fmt.Sprintf("%d", nd), fmt.Sprintf("%d", res.Stats.CandidateViews), ms(d))
	}

	skews := []float64{0, 1.5, 3}
	if cfg.Quick {
		skews = []float64{0, 3}
	}
	for _, z := range skews {
		synth := datagen.DefaultSynthetic("e13z", base/4, cfg.Seed)
		for i := range synth.Dims {
			if synth.Dims[i].Name != synth.TargetDim {
				synth.Dims[i].Zipf = z
			}
		}
		e, q, _, err := synEngine(synth)
		if err != nil {
			return nil, err
		}
		var res *core.Result
		d, err := medianTime(reps(cfg), func() error {
			var err error
			res, err = e.Recommend(ctx, q, opt)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.addRow("zipf skew", fmt.Sprintf("%.1f", z), fmt.Sprintf("%d", res.Stats.CandidateViews), ms(d))
	}
	r.notef("latency scales ~linearly with rows and with dimension count (views ∝ dims·measures); skew mildly reduces group counts")
	return r, nil
}

// ---------------------------------------------------------------------
// E14 — ground-truth recovery

func runE14(cfg Config) (*Report, error) {
	r := &Report{
		ID:         "E14",
		Title:      "Recovering planted trends (demo Scenario 1: 'confirm that SeeDB reproduces known information')",
		PaperClaim: "SeeDB surfaces interesting trends for a query with high quality (§4)",
		Headers:    []string{"planted strength", "precision@planted", "planted mean rank", "top view"},
	}
	rows := cfg.rows(200_000) / 4
	if cfg.Quick {
		rows = cfg.rows(10_000)
	}
	strengths := []float64{0.25, 0.5, 1.0, 2.0}
	if cfg.Quick {
		strengths = []float64{0.5, 2.0}
	}
	for _, strength := range strengths {
		synth := datagen.DefaultSynthetic("e14", rows, cfg.Seed)
		synth.Deviations = []datagen.Deviation{
			{Dim: "d1", Measure: "m0", Strength: strength},
			{Dim: "d2", Measure: "m1", Strength: strength},
		}
		e, q, gt, err := synEngine(synth)
		if err != nil {
			return nil, err
		}
		opts := core.DefaultOptions()
		opts.K = len(gt.PlantedViews)
		opts.AggFuncs = []engine.AggFunc{engine.AggSum}
		// Precision is measured against dimension-side ground truth;
		// binned views of the planted measures would double-count it.
		opts.BinContinuousDims = false
		res, err := e.Recommend(context.Background(), q, opts)
		if err != nil {
			return nil, err
		}
		planted := map[string]bool{}
		for _, d := range gt.PlantedViews {
			planted[d.Dim+"/"+d.Measure] = true
		}
		hits := 0
		for _, rec := range res.Recommendations {
			if planted[rec.Data.View.Dimension+"/"+rec.Data.View.Measure] {
				hits++
			}
		}
		// Mean rank of planted views in the full ordering.
		rankSum, found := 0, 0
		for rank, s := range res.AllScores {
			if planted[s.View.Dimension+"/"+s.View.Measure] {
				rankSum += rank + 1
				found++
			}
		}
		meanRank := "-"
		if found > 0 {
			meanRank = fmt.Sprintf("%.1f", float64(rankSum)/float64(found))
		}
		r.addRow(
			fmt.Sprintf("%.2f", strength),
			fmt.Sprintf("%.2f", float64(hits)/float64(len(gt.PlantedViews))),
			meanRank,
			res.Recommendations[0].Data.View.String())
	}
	r.notef("strong planted deviations are recovered with precision 1.0; weak ones sink toward the noise floor, as expected")
	return r, nil
}
