package core

import (
	"context"
	"fmt"
	"sync"

	"seedb/internal/distance"
	"seedb/internal/engine"
)

// runUnit executes one unit's queries and converts the engine results
// into aligned ViewData (the View Processor of Figure 4: results are
// normalized; utilities are assigned afterwards by the exploration
// operator's Score). cache, tb, and fingerprint are the snapshot taken
// by executePlan — passed together so a SetCache racing with an
// in-flight plan can never pair a live cache with an empty fingerprint
// (tb is nil exactly when the cache path is off). With a cache
// installed, identical queries (the comparison side of every request
// against the same table, repeated target queries, concurrent
// duplicates) skip the scan entirely. needsRef comes from the
// operator's data declaration: when false only the target-side query
// runs and its results are mirrored into the comparison slot.
//
// With count set, the unit's target-side scan also carries
// targetCountSet and runUnit returns |D_Q| (in the range) from it, so
// the target count costs no scan of its own; otherwise it returns 0.
func runUnit(ctx context.Context, e *Engine, be Backend, cache ExecCache, tb *engine.Table, fingerprint string, u *execUnit, q Query, opts Options, needsRef, sample, count bool, scanPar, rowLo, rowHi int) ([]*ViewData, int64, error) {
	// run issues one shared scan of the unit, with extra appended to its
	// grouping sets.
	run := func(combined bool, where engine.Predicate, extra ...engine.GroupingSet) ([]*engine.Result, error) {
		eq := &engine.Query{Table: q.Table, Where: where, Parallelism: scanPar, RowLo: rowLo, RowHi: rowHi}
		if sample {
			eq.SampleFraction = opts.SampleFraction
			eq.SampleSeed = opts.SampleSeed
		}
		gsets := append(u.groupingSets(combined), extra...)
		if cache == nil || fingerprint == "" {
			return be.RunSharedScan(ctx, eq, gsets)
		}
		return cache.GetOrCompute(ctx, execCacheKey(fingerprint, be.Signature(), opts.Operator, eq, gsets), func() ([]*engine.Result, bool, error) {
			res, err := be.RunSharedScan(ctx, eq, gsets)
			if err != nil {
				return nil, false, err
			}
			// A mutation racing with this plan means the scan may have
			// observed newer rows than the key's fingerprint claims;
			// serve the results but never publish them under the old
			// version's content address. The executor resolves the
			// table by NAME per query, so a drop+reload must also be
			// caught: the catalog has to still hand back the snapshot
			// instance, not a replacement that the scan actually read.
			cur, lookupErr := e.ex.Catalog().Table(q.Table)
			cacheable := lookupErr == nil && cur == tb && tb.Fingerprint() == fingerprint
			return res, cacheable, nil
		})
	}

	// The count set rides the scan that sees the target: the combined
	// scan has no WHERE, so its count filters by the predicate itself;
	// the WHERE-predicate scan counts every row it selects.
	var countSet []engine.GroupingSet
	if count {
		var filter engine.Predicate
		if opts.CombineTargetComparison {
			filter = q.Predicate
		}
		countSet = []engine.GroupingSet{targetCountSet(filter)}
	}

	// results per side: comparison first, then target (same slice when
	// the combined rewrite is active). The count set's result, when
	// present, trails the target side's and no view reads it.
	var compRes, targRes []*engine.Result
	switch {
	case opts.CombineTargetComparison:
		results, err := run(true, nil, countSet...)
		if err != nil {
			return nil, 0, fmt.Errorf("core: unit %v: %w", u.dims, err)
		}
		compRes, targRes = results, results
	case !needsRef:
		// Target-only operator: one scan of D_Q; the comparison slot
		// mirrors it so ViewData keeps its shape (Target == Comparison).
		results, err := run(false, q.Predicate, countSet...)
		if err != nil {
			return nil, 0, fmt.Errorf("core: unit %v target: %w", u.dims, err)
		}
		compRes, targRes = results, results
	default:
		var err error
		if compRes, err = run(false, nil); err != nil {
			return nil, 0, fmt.Errorf("core: unit %v comparison: %w", u.dims, err)
		}
		if targRes, err = run(false, q.Predicate, countSet...); err != nil {
			return nil, 0, fmt.Errorf("core: unit %v target: %w", u.dims, err)
		}
	}
	var targetRows int64
	if count {
		// The count set's one group, or none when the scan selected no
		// rows.
		if res := targRes[len(targRes)-1]; len(res.Rows) > 0 {
			targetRows = res.Rows[0][0].I
		}
	}

	var out []*ViewData
	for di, dim := range u.dims {
		cRes, tRes := compRes[resIndex(u, di)], targRes[resIndex(u, di)]
		for _, vc := range u.bindings[dim] {
			var tMap, cMap map[string]float64
			var tAux, cAux *avgAuxMaps
			if u.composite {
				dimPos := di // position of dim in the composite key
				cMap, cAux = marginalize(cRes, dimPos, vc, false, opts.CombineTargetComparison)
				tMap, tAux = marginalize(tRes, dimPos, vc, true, opts.CombineTargetComparison)
			} else {
				cMap, cAux = extractSide(cRes, vc, false, opts.CombineTargetComparison)
				tMap, tAux = extractSide(tRes, vc, true, opts.CombineTargetComparison)
			}
			vd := buildViewData(vc.view, tMap, cMap)
			if vd != nil {
				attachAvgAux(vd, tAux, cAux)
				out = append(out, vd)
			}
		}
	}
	return out, targetRows, nil
}

// avgAuxMaps holds an AVG view's per-group sum and count partials for
// one side, keyed by group label.
type avgAuxMaps struct {
	sums   map[string]float64
	counts map[string]float64
}

// attachAvgAux aligns aux partials with the view's key order so phased
// execution can merge AVG views exactly.
func attachAvgAux(vd *ViewData, tAux, cAux *avgAuxMaps) {
	mk := func(a *avgAuxMaps) *AvgAux {
		if a == nil {
			return nil
		}
		out := &AvgAux{Sums: make([]float64, len(vd.Keys)), Counts: make([]float64, len(vd.Keys))}
		for i, k := range vd.Keys {
			out.Sums[i] = a.sums[k]
			out.Counts[i] = a.counts[k]
		}
		return out
	}
	vd.TargetAux, vd.ComparisonAux = mk(tAux), mk(cAux)
}

// resIndex maps a dim position to the result slice index: grouping
// sets produce one result per dim, single/composite produce one total.
func resIndex(u *execUnit, di int) int {
	if u.sets != nil {
		return di
	}
	return 0
}

// extractSide reads one view's per-group values out of a
// single-dimension result. When combined is true the target side lives
// in the FILTER column of the same result; otherwise both sides use
// the comparison aliases in their own result. An AVG view rewritten to
// SUM+COUNT (phased execution) is recomposed here, and its partials
// come back as aux.
func extractSide(res *engine.Result, vc viewCols, targetSide, combined bool) (map[string]float64, *avgAuxMaps) {
	col, auxCol := vc.cPrimary, vc.cAux
	if targetSide && combined {
		col, auxCol = vc.tPrimary, vc.tAux
	}
	ci := res.ColumnIndex(col)
	ai := -1
	if auxCol != "" {
		ai = res.ColumnIndex(auxCol)
	}
	out := make(map[string]float64, len(res.Rows))
	var aux *avgAuxMaps
	if ai >= 0 {
		aux = &avgAuxMaps{sums: make(map[string]float64, len(res.Rows)), counts: make(map[string]float64, len(res.Rows))}
	}
	for _, row := range res.Rows {
		v := row[ci]
		if v.Null {
			continue // group absent on this side
		}
		f, ok := v.AsFloat()
		if !ok {
			continue
		}
		label := row[0].Format()
		if ai >= 0 {
			// Primary is the rewritten SUM; the view's value is AVG.
			cnt, _ := row[ai].AsFloat()
			if cnt <= 0 {
				continue
			}
			aux.sums[label] = f
			aux.counts[label] = cnt
			out[label] = f / cnt
			continue
		}
		out[label] = f
	}
	return out, aux
}

// marginalize recomposes one dimension's per-group aggregates from a
// composite-key result: COUNT/SUM accumulate, MIN/MAX take extrema,
// AVG divides accumulated SUM by accumulated COUNT. This is the
// backend post-processing step of the "combine multiple group-bys"
// optimization. For AVG views the sum/count partials are also returned
// so phased execution can merge them across row ranges.
func marginalize(res *engine.Result, dimPos int, vc viewCols, targetSide, combined bool) (map[string]float64, *avgAuxMaps) {
	primary := vc.cPrimary
	aux := vc.cAux
	if targetSide && combined {
		primary, aux = vc.tPrimary, vc.tAux
	}
	pi := res.ColumnIndex(primary)
	ai := -1
	if aux != "" {
		ai = res.ColumnIndex(aux)
	}
	f := vc.view.Func

	sums := map[string]float64{}
	counts := map[string]float64{}
	mins := map[string]float64{}
	maxs := map[string]float64{}
	seen := map[string]bool{}
	for _, row := range res.Rows {
		label := row[dimPos].Format()
		v := row[pi]
		if v.Null {
			// Group exists in the composite result but this side has
			// no rows for it; COUNT would be 0 (not NULL), so only
			// SUM/MIN/MAX/AVG hit this path.
			continue
		}
		fv, ok := v.AsFloat()
		if !ok {
			continue
		}
		switch f {
		case engine.AggCount, engine.AggSum:
			sums[label] += fv
			seen[label] = true
		case engine.AggMin:
			if !seen[label] || fv < mins[label] {
				mins[label] = fv
			}
			seen[label] = true
		case engine.AggMax:
			if !seen[label] || fv > maxs[label] {
				maxs[label] = fv
			}
			seen[label] = true
		case engine.AggAvg:
			sums[label] += fv
			if ai >= 0 {
				if c, ok := row[ai].AsFloat(); ok {
					counts[label] += c
				}
			}
			seen[label] = true
		}
	}
	out := make(map[string]float64, len(seen))
	var avgAux *avgAuxMaps
	if f == engine.AggAvg {
		avgAux = &avgAuxMaps{sums: map[string]float64{}, counts: map[string]float64{}}
	}
	for label := range seen {
		switch f {
		case engine.AggCount, engine.AggSum:
			out[label] = sums[label]
		case engine.AggMin:
			out[label] = mins[label]
		case engine.AggMax:
			out[label] = maxs[label]
		case engine.AggAvg:
			if counts[label] > 0 {
				out[label] = sums[label] / counts[label]
				avgAux.sums[label] = sums[label]
				avgAux.counts[label] = counts[label]
			}
		}
	}
	// COUNT semantics: zero matching rows is mass 0, not absence, when
	// the group exists on the comparison side; absence handling is
	// performed by Align, so dropping zero-count labels here is
	// equivalent and keeps maps sparse.
	return out, avgAux
}

// buildViewData aligns the two sides and normalizes. Scoring is the
// exploration operator's job (ExplorationOperator.Score), which runs on
// the gathered batch — per-view utilities like deviation come out
// byte-identical to scoring here, and batch operators (outlier,
// similarity) get the cross-view context they need. A view with no
// groups on either side cannot be evaluated and yields nil.
func buildViewData(v View, tMap, cMap map[string]float64) *ViewData {
	if len(tMap) == 0 && len(cMap) == 0 {
		return nil
	}
	tDist, cDist, keys := distance.Align(tMap, cMap)
	tRaw := make([]float64, len(keys))
	cRaw := make([]float64, len(keys))
	tHas := make([]bool, len(keys))
	cHas := make([]bool, len(keys))
	for i, k := range keys {
		tRaw[i], tHas[i] = tMap[k]
		cRaw[i], cHas[i] = cMap[k]
	}
	return &ViewData{
		View:          v,
		Keys:          keys,
		TargetRaw:     tRaw,
		ComparisonRaw: cRaw,
		Target:        tDist,
		Comparison:    cDist,
		targetHas:     tHas,
		compHas:       cHas,
	}
}

// executePlan dispatches units across a worker pool ("Parallel Query
// Execution", §3.3) and gathers evaluated (not yet scored) views. With
// count set, the first unit also counts the target rows in the range
// (see runUnit), which executePlan returns; otherwise it returns 0.
func executePlan(ctx context.Context, e *Engine, p *plan, q Query, opts Options, needsRef, sample, count bool, rowLo, rowHi int) ([]*ViewData, int64, error) {
	if len(p.units) == 0 {
		return nil, 0, nil
	}
	// One cache + backend + fingerprint snapshot per plan: every unit
	// of this call caches against the same table version and runs on
	// the same backend, and a concurrent SetCache cannot hand later
	// units a cache without a fingerprint.
	be := e.Backend()
	cache := e.Cache()
	var tb *engine.Table
	var fingerprint string
	if cache != nil {
		var err error
		if tb, err = e.ex.Catalog().Table(q.Table); err != nil {
			return nil, 0, err
		}
		fingerprint = tb.Fingerprint()
	}
	results := make([][]*ViewData, len(p.units))
	var targetRows int64
	run := func(i int) error {
		vds, n, err := runUnit(ctx, e, be, cache, tb, fingerprint, p.units[i], q, opts, needsRef, sample, count && i == 0, p.scanParallelism, rowLo, rowHi)
		if i == 0 {
			targetRows = n
		}
		results[i] = vds
		return err
	}
	workers := min(opts.Parallelism, len(p.units))
	if workers <= 1 {
		for i := range p.units {
			if err := run(i); err != nil {
				return nil, 0, err
			}
		}
	} else {
		unitCh := make(chan int)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range unitCh {
					if err := run(i); err != nil {
						errs[w] = err
					}
				}
			}(w)
		}
		for i := range p.units {
			unitCh <- i
		}
		close(unitCh)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, 0, err
			}
		}
	}
	var all []*ViewData
	for _, vds := range results {
		all = append(all, vds...)
	}
	return all, targetRows, nil
}
