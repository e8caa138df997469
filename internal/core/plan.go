package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"seedb/internal/binpack"
	"seedb/internal/engine"
	"seedb/internal/stats"
)

// viewCols records the engine result columns that carry one view's
// data within an execution unit. In composite-key mode an AVG view
// needs auxiliary COUNT columns so marginal averages can be recomposed
// from partial sums.
type viewCols struct {
	view View
	// result column aliases
	tPrimary string // target side primary aggregate
	cPrimary string // comparison side primary aggregate
	tAux     string // target COUNT (composite AVG only)
	cAux     string // comparison COUNT (composite AVG only)
}

// execUnit is one schedulable piece of work: a set of dimensions whose
// views are computed together. Depending on the combine modes it
// lowers to one engine query (combined target+comparison), or a
// target/comparison query pair, each possibly carrying grouping sets
// (one per dimension) or a composite group-by key.
type execUnit struct {
	dims      []string
	composite bool       // composite-key marginalization required
	sets      [][]string // grouping sets (one per dim) when len(dims)>1 && !composite

	// aggsCombinedByDim holds both sides (comparison unfiltered,
	// target filtered) per dimension when CombineTargetComparison is
	// on; otherwise aggsSideByDim holds one side's specs per dimension
	// and the unit runs twice. Keeping the lists per dimension lets a
	// shared scan give each grouping set only its own aggregates.
	aggsCombinedByDim map[string][]engine.AggSpec
	aggsSideByDim     map[string][]engine.AggSpec

	bindings map[string][]viewCols // dim -> views computed by this unit

	// binWidths carries each binned dimension's width into the engine
	// queries (empty entries mean raw grouping).
	binWidths map[string]float64
}

// aggsFor returns the aggregate list for one dimension of the unit.
func (u *execUnit) aggsFor(dim string, combined bool) []engine.AggSpec {
	if combined {
		return u.aggsCombinedByDim[dim]
	}
	return u.aggsSideByDim[dim]
}

// allAggs concatenates every dimension's aggregates in dims order (for
// composite-key queries, which compute everything under one key).
func (u *execUnit) allAggs(combined bool) []engine.AggSpec {
	var out []engine.AggSpec
	for _, d := range u.dims {
		out = append(out, u.aggsFor(d, combined)...)
	}
	return out
}

// groupingSets lowers the unit to the grouping sets of one shared scan:
// a shared-scan unit gives each dimension a set computing only its own
// aggregates; a single-dimension or composite unit is one set keyed by
// all of its dimensions.
func (u *execUnit) groupingSets(combined bool) []engine.GroupingSet {
	if u.sets == nil {
		gs := engine.GroupingSet{By: u.dims, Aggs: u.allAggs(combined)}
		if len(u.binWidths) > 0 {
			gs.BinWidths = u.binWidths
		}
		return []engine.GroupingSet{gs}
	}
	gsets := make([]engine.GroupingSet, len(u.dims))
	for i, d := range u.dims {
		gsets[i] = engine.GroupingSet{By: []string{d}, Aggs: u.aggsFor(d, combined)}
		if w, ok := u.binWidths[d]; ok {
			gsets[i].BinWidths = map[string]float64{d: w}
		}
	}
	return gsets
}

// targetCountSet is the zero-key grouping set that counts |D_Q| inside
// the plan's first scan: COUNT(*) over the rows filter selects, or over
// every row the scan selects when filter is nil (the scan's WHERE is
// then the predicate). The dense layout serves it with one slot.
func targetCountSet(filter engine.Predicate) engine.GroupingSet {
	return engine.GroupingSet{Aggs: []engine.AggSpec{{Func: engine.AggCount, Filter: filter, Alias: "target_rows"}}}
}

// plan is the full execution plan for a Recommend call.
type plan struct {
	units []*execUnit
	// scanParallelism is the intra-query parallelism handed to the
	// engine for each unit (the across-unit parallelism is handled by
	// the dispatch pool).
	scanParallelism int
}

// summary renders the plan as a one-line human description.
func (p *plan) summary(combined bool) string {
	var single, shared, composite int
	var sharedDims, compositeDims int
	for _, u := range p.units {
		switch {
		case u.composite:
			composite++
			compositeDims += len(u.dims)
		case u.sets != nil:
			shared++
			sharedDims += len(u.dims)
		default:
			single++
		}
	}
	queriesPerUnit := 1
	if !combined {
		queriesPerUnit = 2
	}
	parts := []string{fmt.Sprintf("%d units (%d queries)", len(p.units), len(p.units)*queriesPerUnit)}
	if single > 0 {
		parts = append(parts, fmt.Sprintf("%d single-dim", single))
	}
	if shared > 0 {
		parts = append(parts, fmt.Sprintf("%d shared-scan covering %d dims", shared, sharedDims))
	}
	if composite > 0 {
		parts = append(parts, fmt.Sprintf("%d composite-key covering %d dims", composite, compositeDims))
	}
	return strings.Join(parts, ", ")
}

// decomposable reports whether a view's aggregate can be recomposed
// from composite-key partials: COUNT/SUM add, MIN/MAX take extrema,
// AVG = SUM/COUNT. VAR and STDDEV would need a sum-of-squares column
// and are excluded from composite packing by the planner.
func decomposable(f engine.AggFunc) bool {
	switch f {
	case engine.AggCount, engine.AggSum, engine.AggMin, engine.AggMax, engine.AggAvg:
		return true
	default:
		return false
	}
}

// buildPlan lowers the surviving views into execution units according
// to the optimizer options. It implements the three "View Query
// Optimizations" of §3.3: combine target+comparison (conditional
// aggregates, applied later when specs are materialized), combine
// multiple aggregates (units hold all views of a dimension), and
// combine multiple group-bys (units hold several dimensions, packed
// under the group budget via grouping sets or composite keys).
func buildPlan(views []View, ts *stats.TableStats, q Query, opts Options) (*plan, error) {
	dims, byDim := viewsByDimension(views)
	sort.Strings(dims)

	// Step 1: per-dimension view lists, split by aggregate sharing.
	type dimJob struct {
		dim   string
		views []View
	}
	var jobs []dimJob
	if opts.CombineAggregates {
		for _, d := range dims {
			jobs = append(jobs, dimJob{dim: d, views: byDim[d]})
		}
	} else {
		// Basic framework: one view per unit.
		for _, d := range dims {
			for _, v := range byDim[d] {
				jobs = append(jobs, dimJob{dim: d, views: []View{v}})
			}
		}
	}

	// Effective group-count estimate per dimension: binned dimensions
	// produce ~range/width buckets regardless of raw cardinality.
	binWidth := map[string]float64{}
	for _, d := range dims {
		for _, v := range byDim[d] {
			if v.BinWidth > 0 {
				binWidth[d] = v.BinWidth
			}
		}
	}
	card := func(dim string) float64 {
		cs, err := ts.Column(dim)
		if err != nil || cs.Distinct < 1 {
			return 1
		}
		if w := binWidth[dim]; w > 0 && cs.Max > cs.Min {
			bins := (cs.Max-cs.Min)/w + 2
			if float64(cs.Distinct) < bins {
				return float64(cs.Distinct + 1)
			}
			return bins
		}
		return float64(cs.Distinct + 1) // +1 for a possible NULL group
	}

	var units []*execUnit
	switch {
	case opts.CombineGroupBys == CombineNone || !opts.CombineAggregates || len(jobs) <= 1:
		// One unit per job. (Multi-group-by combining presupposes
		// aggregate combining; without it each view stays standalone.)
		for _, j := range jobs {
			units = append(units, newUnit([]string{j.dim}, map[string][]View{j.dim: j.views}, false))
		}

	case opts.CombineGroupBys == CombineGroupingSets:
		// Memory is the SUM of per-dimension group counts: pack
		// dimensions so Σcard ≤ GroupBudget.
		items := make([]binpack.Item, len(jobs))
		budget := float64(opts.GroupBudget)
		for i, j := range jobs {
			w := card(j.dim)
			if w > budget {
				w = budget // oversized dims get a dedicated unit
			}
			items[i] = binpack.Item{ID: j.dim, Weight: w}
		}
		packing, err := packItems(items, budget, opts.ExactPacking)
		if err != nil {
			return nil, err
		}
		byName := map[string][]View{}
		for _, j := range jobs {
			byName[j.dim] = j.views
		}
		for _, bin := range packing.Bins {
			unitDims := make([]string, len(bin))
			unitViews := map[string][]View{}
			for i, it := range bin {
				unitDims[i] = it.ID
				unitViews[it.ID] = byName[it.ID]
			}
			sort.Strings(unitDims)
			units = append(units, newUnit(unitDims, unitViews, false))
		}

	case opts.CombineGroupBys == CombineCompositeKey:
		// Memory is the PRODUCT of cardinalities: pack on log-weights
		// so Σlog(card) ≤ log(GroupBudget). Views whose aggregate is
		// not decomposable (VAR/STDDEV) fall back to dedicated units.
		byName := map[string][]View{}
		var fallback []dimJob
		var packable []dimJob
		for _, j := range jobs {
			var dec, rest []View
			for _, v := range j.views {
				if decomposable(v.Func) {
					dec = append(dec, v)
				} else {
					rest = append(rest, v)
				}
			}
			if len(rest) > 0 {
				fallback = append(fallback, dimJob{dim: j.dim, views: rest})
			}
			if len(dec) > 0 {
				packable = append(packable, dimJob{dim: j.dim, views: dec})
				byName[j.dim] = dec
			}
		}
		logBudget := math.Log(float64(opts.GroupBudget))
		items := make([]binpack.Item, len(packable))
		for i, j := range packable {
			w := math.Log(card(j.dim))
			if w <= 0 {
				w = 1e-9
			}
			if w > logBudget {
				w = logBudget
			}
			items[i] = binpack.Item{ID: j.dim, Weight: w}
		}
		packing, err := packItems(items, logBudget, opts.ExactPacking)
		if err != nil {
			return nil, err
		}
		for _, bin := range packing.Bins {
			unitDims := make([]string, len(bin))
			unitViews := map[string][]View{}
			for i, it := range bin {
				unitDims[i] = it.ID
				unitViews[it.ID] = byName[it.ID]
			}
			sort.Strings(unitDims)
			units = append(units, newUnit(unitDims, unitViews, len(unitDims) > 1))
		}
		for _, j := range fallback {
			units = append(units, newUnit([]string{j.dim}, map[string][]View{j.dim: j.views}, false))
		}

	default:
		return nil, fmt.Errorf("core: unknown combine mode %v", opts.CombineGroupBys)
	}

	// Step 2: materialize aggregate specs for every unit. Phased
	// execution needs every AVG carried as SUM+COUNT pairs so per-phase
	// partials merge exactly (composite units need the same rewrite to
	// marginalize).
	for _, u := range units {
		materializeAggs(u, q.Predicate, opts.CombineTargetComparison, opts.Phases > 1)
	}

	p := &plan{units: units, scanParallelism: 1}
	if len(units) < opts.Parallelism && len(units) > 0 {
		p.scanParallelism = (opts.Parallelism + len(units) - 1) / len(units)
	}
	return p, nil
}

func packItems(items []binpack.Item, capacity float64, exact bool) (binpack.Packing, error) {
	if len(items) == 0 {
		return binpack.Packing{}, nil
	}
	if exact {
		return binpack.BranchAndBound(items, capacity, 0)
	}
	return binpack.FirstFitDecreasing(items, capacity)
}

func newUnit(dims []string, views map[string][]View, composite bool) *execUnit {
	u := &execUnit{
		dims: dims, composite: composite,
		bindings:          map[string][]viewCols{},
		aggsCombinedByDim: map[string][]engine.AggSpec{},
		aggsSideByDim:     map[string][]engine.AggSpec{},
		binWidths:         map[string]float64{},
	}
	if len(dims) > 1 && !composite {
		u.sets = make([][]string, len(dims))
		for i, d := range dims {
			u.sets[i] = []string{d}
		}
	}
	for _, d := range dims {
		for _, v := range views[d] {
			u.bindings[d] = append(u.bindings[d], viewCols{view: v})
			if v.BinWidth > 0 {
				u.binWidths[d] = v.BinWidth
			}
		}
	}
	return u
}

// materializeAggs assigns result-column aliases and builds the
// AggSpec lists. When combine is true, each view contributes a
// comparison aggregate (unfiltered) and a target aggregate (filtered
// by the user predicate) to one query — the paper's "combine target
// and comparison view query" rewrite. Otherwise one side's spec list
// is built and the executor runs it twice.
//
// AVG views are rewritten to SUM + COUNT pairs whenever their partials
// must be recombined downstream: in composite mode (marginal averages)
// and under phased execution (per-phase merge).
func materializeAggs(u *execUnit, predicate engine.Predicate, combine, avgParts bool) {
	idx := 0
	for _, d := range u.dims {
		cols := u.bindings[d]
		for i := range cols {
			vc := &cols[i]
			v := vc.view
			vc.cPrimary = fmt.Sprintf("c%d", idx)
			vc.tPrimary = fmt.Sprintf("t%d", idx)

			compositeAvg := (u.composite || avgParts) && v.Func == engine.AggAvg
			primaryFunc := v.Func
			if compositeAvg {
				primaryFunc = engine.AggSum
				vc.cAux = fmt.Sprintf("cc%d", idx)
				vc.tAux = fmt.Sprintf("tc%d", idx)
			}

			if combine {
				u.aggsCombinedByDim[d] = append(u.aggsCombinedByDim[d],
					engine.AggSpec{Func: primaryFunc, Column: v.Measure, Alias: vc.cPrimary},
					engine.AggSpec{Func: primaryFunc, Column: v.Measure, Filter: predicate, Alias: vc.tPrimary},
				)
				if compositeAvg {
					u.aggsCombinedByDim[d] = append(u.aggsCombinedByDim[d],
						engine.AggSpec{Func: engine.AggCount, Column: v.Measure, Alias: vc.cAux},
						engine.AggSpec{Func: engine.AggCount, Column: v.Measure, Filter: predicate, Alias: vc.tAux},
					)
				}
			} else {
				// Side queries share aliases: the comparison run reads
				// cPrimary, the target run is the same query filtered
				// by the predicate; the executor renames on extract.
				u.aggsSideByDim[d] = append(u.aggsSideByDim[d],
					engine.AggSpec{Func: primaryFunc, Column: v.Measure, Alias: vc.cPrimary})
				if compositeAvg {
					u.aggsSideByDim[d] = append(u.aggsSideByDim[d],
						engine.AggSpec{Func: engine.AggCount, Column: v.Measure, Alias: vc.cAux})
				}
			}
			idx++
		}
		u.bindings[d] = cols
	}
}
