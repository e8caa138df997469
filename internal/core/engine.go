package core

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"seedb/internal/distance"
	"seedb/internal/engine"
	"seedb/internal/stats"
	"seedb/internal/viz"
)

// Engine is the SeeDB backend: it owns an executor over a catalog plus
// a cached metadata collector, and serves Recommend calls.
type Engine struct {
	ex        *engine.Executor
	collector *stats.Collector

	// cache, when set, short-circuits exec-unit queries whose results
	// were already computed against the same table fingerprint (see
	// ExecCache). Installed by the service layer; unset means every
	// query scans. Held behind an atomic pointer so installing a cache
	// on a live engine cannot tear the two-word interface read in
	// concurrent Recommend calls.
	cache atomic.Pointer[ExecCache]

	// backend routes the optimizer's engine queries (see Backend); nil
	// means the in-process executor. Atomic for the same reason as
	// cache: a cluster backend may be installed on a live engine, and
	// in-flight plans keep the backend they started with.
	backend atomic.Pointer[Backend]
}

// New builds a SeeDB engine over an executor.
func New(ex *engine.Executor) *Engine {
	return &Engine{ex: ex, collector: stats.NewCollector()}
}

// Executor exposes the underlying engine executor (the frontend uses
// it for raw SQL and sample-data panes).
func (e *Engine) Executor() *engine.Executor { return e.ex }

// Collector exposes the metadata collector.
func (e *Engine) Collector() *stats.Collector { return e.collector }

// SetCache installs (or, with nil, removes) the exec-unit result
// cache. Safe to call on a live engine; in-flight plans keep the
// snapshot they started with.
func (e *Engine) SetCache(c ExecCache) {
	if c == nil {
		e.cache.Store(nil)
		return
	}
	e.cache.Store(&c)
}

// Cache returns the installed exec-unit result cache, if any.
func (e *Engine) Cache() ExecCache {
	if p := e.cache.Load(); p != nil {
		return *p
	}
	return nil
}

// SetBackend installs (or, with nil, removes) the execution backend.
// Safe on a live engine; plans already in flight keep the backend
// snapshot they started with.
func (e *Engine) SetBackend(b Backend) {
	if b == nil {
		e.backend.Store(nil)
		return
	}
	e.backend.Store(&b)
}

// Backend returns the active execution backend (the in-process
// executor when none was installed).
func (e *Engine) Backend() Backend {
	if p := e.backend.Load(); p != nil {
		return *p
	}
	return localBackend{ex: e.ex}
}

// Recommend runs the full SeeDB pipeline for the analyst query q:
// metadata collection, view enumeration, pruning, optimization,
// execution, scoring, and top-k selection (Problem 2.1 of the paper).
func (e *Engine) Recommend(ctx context.Context, q Query, opts Options) (*Result, error) {
	return e.RecommendProgress(ctx, q, opts, nil)
}

// RecommendProgress is Recommend with a progress seam: listener (when
// non-nil) receives an immutable ranking snapshot after every phase of
// phased execution and a final snapshot just before the call returns.
// The listener observes — it cannot change the returned Result, which
// is byte-identical to a plain Recommend with the same options.
func (e *Engine) RecommendProgress(ctx context.Context, q Query, opts Options, listener ProgressListener) (*Result, error) {
	opts, err := opts.normalize()
	if err != nil {
		return nil, err
	}
	metric, err := distance.Get(opts.Metric)
	if err != nil {
		return nil, err
	}
	op, err := GetOperator(opts.Operator)
	if err != nil {
		return nil, err
	}
	tb, err := e.ex.Catalog().Table(q.Table)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ctx, tally := e.ex.WithTally(ctx)

	// |D_Q| comes out of the plan's first scan (targetCountSet), so an
	// empty target is rejected after execution; a bad predicate is
	// rejected here, before anything is scanned. A sampled run counts
	// up front instead (see countTarget).
	sample := opts.SampleFraction > 0 && tb.NumRows() >= opts.SampleMinRows
	var targetRows int64
	if sample {
		if targetRows, err = e.countTarget(ctx, q); err != nil {
			return nil, err
		}
		if targetRows == 0 {
			return nil, emptyTargetError(q)
		}
	} else if err := validatePredicate(tb, q.Predicate); err != nil {
		return nil, err
	}

	// Metadata Collector.
	ts := e.collector.Stats(tb)

	// Query Generator: enumerate then prune.
	var predicateCols []string
	if q.Predicate != nil {
		predicateCols = q.Predicate.Columns()
	}
	roles, err := detectRoles(ts, tb.Schema(), opts, predicateCols)
	if err != nil {
		return nil, err
	}
	views := EnumerateViews(roles, opts.AggFuncs)
	res := &Result{
		Query:    q,
		Metric:   metric.Name(),
		Operator: op.Name(),
	}
	res.Stats.CandidateViews = len(views)

	outcome, err := pruneViews(views, tb, ts, e.collector, opts, &res.Stats)
	if err != nil {
		return nil, err
	}
	if len(outcome.views) == 0 {
		return nil, fmt.Errorf("core: every candidate view was pruned; relax pruning options")
	}
	// Views the operator declares it cannot run without (similarity's
	// probe) are force-included: enumeration or pruning may have
	// skipped them, but the operator needs their data to score the rest.
	for _, rv := range op.RequiredViews(opts) {
		if err := validateRequiredView(rv, ts, op.Name()); err != nil {
			return nil, err
		}
		present := false
		for _, v := range outcome.views {
			if v.Key() == rv.Key() {
				present = true
				break
			}
		}
		if !present {
			outcome.views = append(outcome.views, rv)
		}
	}
	res.Stats.ExecutedViews = len(outcome.views)

	res.Stats.Sampled = sample
	if sample {
		res.Stats.SampleFraction = opts.SampleFraction
	}

	// Optimizer + DBMS + View Processor.
	var data []*ViewData
	var counted int64
	phasesUsed := 1
	if opts.Phases > 1 {
		data, phasesUsed, counted, err = e.runPhased(ctx, outcome.views, ts, q, opts, op, metric, sample, &res.Stats, listener)
	} else {
		var p *plan
		p, err = buildPlan(outcome.views, ts, q, opts)
		if err == nil {
			res.Stats.PlanSummary = p.summary(opts.CombineTargetComparison)
			data, counted, err = executePlan(ctx, e, p, q, opts, op.NeedsReference(), sample, !sample, 0, 0)
		}
	}
	if err != nil {
		return nil, err
	}
	if !sample {
		if targetRows = counted; targetRows == 0 {
			return nil, emptyTargetError(q)
		}
	}
	res.TargetRowCount = targetRows

	// Exploration operator: score the evaluated batch. Both execution
	// paths hand the operator unscored views, so single-pass and phased
	// runs score through exactly one code path.
	data, err = op.Score(&ScoreContext{Metric: metric, Opts: opts}, data)
	if err != nil {
		return nil, err
	}

	// Rank and package.
	sort.SliceStable(data, func(i, j int) bool {
		if data[i].Utility != data[j].Utility {
			return data[i].Utility > data[j].Utility
		}
		return data[i].View.Key() < data[j].View.Key()
	})
	if listener != nil {
		listener(finalSnapshot(phasesUsed, phasesUsed, res.Stats.PrunedViews[PrunedPhased], data))
	}
	for _, d := range data {
		res.AllScores = append(res.AllScores, ViewScore{View: d.View, Utility: d.Utility})
	}
	k := opts.K
	if k > len(data) {
		k = len(data)
	}
	for i := 0; i < k; i++ {
		res.Recommendations = append(res.Recommendations, e.packageRec(i+1, data[i], q, outcome, op.Intent()))
	}
	if opts.IncludeWorst > 0 {
		w := opts.IncludeWorst
		if w > len(data)-k {
			w = len(data) - k
		}
		for i := 0; i < w; i++ {
			d := data[len(data)-1-i]
			res.WorstViews = append(res.WorstViews, e.packageRec(i+1, d, q, outcome, op.Intent()))
		}
	}

	res.Stats.QueriesIssued, res.Stats.TableScans, res.Stats.RowsRead = tally.Snapshot()
	res.Stats.ElapsedMillis = float64(time.Since(start).Microseconds()) / 1000
	return res, nil
}

func (e *Engine) packageRec(rank int, d *ViewData, q Query, outcome pruneOutcome, intent viz.Intent) Recommendation {
	return Recommendation{
		Rank:          rank,
		Data:          d,
		Represents:    outcome.represents[d.View.Dimension],
		TargetSQL:     d.View.TargetSQL(q.Table, q.Predicate),
		ComparisonSQL: d.View.ComparisonSQL(q.Table),
		// Chart-type recommendation (DataVizard-style): scored from the
		// view's dimension cardinality, its measure shape, and the
		// operator's presentation intent.
		ChartType: viz.RecommendType(viz.ChartInputs{Keys: d.Keys, Values: d.TargetRaw, Intent: intent}).String(),
	}
}

// validateRequiredView checks that an operator-required view references
// real columns before it is injected into the execution set.
func validateRequiredView(v View, ts *stats.TableStats, opName string) error {
	if _, err := ts.Column(v.Dimension); err != nil {
		return fmt.Errorf("core: %s operator: probe dimension %q: %w", opName, v.Dimension, err)
	}
	if v.Measure != "" {
		if _, err := ts.Column(v.Measure); err != nil {
			return fmt.Errorf("core: %s operator: probe measure %q: %w", opName, v.Measure, err)
		}
	}
	return nil
}

// emptyTargetError is the error of a query whose predicate selects no
// rows.
func emptyTargetError(q Query) error {
	return fmt.Errorf("core: query %q selects no rows; nothing to recommend", describePredicate(q.Predicate))
}

// validatePredicate binds the predicate against the table's schema —
// no scan — so a bad column or type fails a Recommend before anything
// is scanned, with the error a scan would have returned.
func validatePredicate(tb *engine.Table, p engine.Predicate) (err error) {
	if p == nil {
		return nil
	}
	tb.View(func() { _, err = p.Bind(tb) })
	return err
}

// countTarget runs SELECT COUNT(*) FROM D WHERE predicate through the
// backend. Only sampled runs call it: their scans see a Bernoulli
// subset, so the count set an exact run reads |D_Q| from
// (targetCountSet) would not see the exact target size.
func (e *Engine) countTarget(ctx context.Context, q Query) (int64, error) {
	res, err := e.Backend().Run(ctx, &engine.Query{
		Table: q.Table,
		Where: q.Predicate,
		Aggs:  []engine.AggSpec{{Func: engine.AggCount, Alias: "n"}},
	})
	if err != nil {
		return 0, err
	}
	if len(res.Rows) == 0 {
		return 0, nil
	}
	return res.Rows[0][0].I, nil
}
