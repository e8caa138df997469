package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
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

	// Each grouping-set result's labels are formatted and sorted once,
	// then shared by every view (and both sides) reading that result.
	var idxs []*labelIndex
	indexOf := func(res *engine.Result, col int) *labelIndex {
		for _, x := range idxs {
			if x.res == res && x.col == col {
				return x
			}
		}
		x := newLabelIndex(res, col)
		idxs = append(idxs, x)
		return x
	}
	var out []*ViewData
	var scratch []mergedGroup
	for di, dim := range u.dims {
		cRes, tRes := compRes[resIndex(u, di)], targRes[resIndex(u, di)]
		col := 0 // the dimension's key column: first, or di in a composite key
		if u.composite {
			col = di
		}
		cIdx, tIdx := indexOf(cRes, col), indexOf(tRes, col)
		for _, vc := range u.bindings[dim] {
			var vd *ViewData
			vd, scratch = deriveView(vc.view, newViewSide(tIdx, vc, true, opts.CombineTargetComparison, u.composite),
				newViewSide(cIdx, vc, false, opts.CombineTargetComparison, u.composite), scratch[:0])
			if vd != nil {
				out = append(out, vd)
			}
		}
	}
	return out, targetRows, nil
}

// resIndex maps a dim position to the result slice index: grouping
// sets produce one result per dim, single/composite produce one total.
func resIndex(u *execUnit, di int) int {
	if u.sets != nil {
		return di
	}
	return 0
}

// labelIndex is one grouping-set result's group labels for one key
// column: labels[r] is row r's Value.Format, order lists the rows
// sorted by label (ties in row order), and the i-th run of equal
// labels is order[runs[i]:runs[i+1]].
type labelIndex struct {
	res    *engine.Result
	col    int
	labels []string
	order  []int32
	runs   []int32
}

func newLabelIndex(res *engine.Result, col int) *labelIndex {
	x := &labelIndex{res: res, col: col, labels: make([]string, len(res.Rows)), order: make([]int32, len(res.Rows))}
	for r, row := range res.Rows {
		x.labels[r] = row[col].Format()
		x.order[r] = int32(r)
	}
	slices.SortFunc(x.order, func(a, b int32) int {
		if c := strings.Compare(x.labels[a], x.labels[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for i, r := range x.order {
		if i == 0 || x.labels[r] != x.labels[x.order[i-1]] {
			x.runs = append(x.runs, int32(i))
		}
	}
	x.runs = append(x.runs, int32(len(x.order)))
	return x
}

// label is the label of run i.
func (x *labelIndex) label(i int) string { return x.labels[x.order[x.runs[i]]] }

// viewSide reads one view's side out of a labelIndex, one run of equal
// labels at a time.
type viewSide struct {
	idx      *labelIndex
	pi, ai   int  // primary and aux (AVG count) columns; ai is -1 without one
	marginal bool // composite key: recompose the dimension's aggregate
	fn       engine.AggFunc
	hasAux   bool // the side carries AVG sum/count partials
}

// newViewSide resolves a side's columns. When combined is true the
// target side lives in the FILTER columns of the same result;
// otherwise both sides use the comparison aliases in their own result.
func newViewSide(idx *labelIndex, vc viewCols, targetSide, combined, marginal bool) viewSide {
	primary, aux := vc.cPrimary, vc.cAux
	if targetSide && combined {
		primary, aux = vc.tPrimary, vc.tAux
	}
	s := viewSide{idx: idx, pi: idx.res.ColumnIndex(primary), ai: -1, marginal: marginal, fn: vc.view.Func}
	if aux != "" {
		s.ai = idx.res.ColumnIndex(aux)
	}
	s.hasAux = s.ai >= 0
	if marginal {
		s.hasAux = s.fn == engine.AggAvg
	}
	return s
}

// group reduces run i to the side's value for that label and, for an
// AVG side with partials, the sum and count behind it; ok is false
// when the side has no group under the label. A NULL or non-numeric
// aggregate is an absent group.
//
// A single-dimension result holds one row per group, except where two
// keys format alike (a NULL group beside the string "NULL"): the last
// present row wins. An AVG view rewritten to SUM+COUNT (phased
// execution) is recomposed here, and a row with no count is absent.
//
// A composite-key result is marginalized, the backend post-processing
// step of the "combine multiple group-bys" optimization: COUNT/SUM
// accumulate in row order, MIN/MAX take extrema (the first NaN
// sticks), and AVG divides accumulated SUM by accumulated COUNT,
// absent unless that count is positive. A composite group with no
// rows on this side is NULL and skipped — COUNT would be 0, not NULL,
// so only SUM/MIN/MAX/AVG meet it.
func (s viewSide) group(i int) (v, sum, cnt float64, ok bool) {
	rows := s.idx.order[s.idx.runs[i]:s.idx.runs[i+1]]
	all := s.idx.res.Rows
	if !s.marginal {
		for j := len(rows) - 1; j >= 0; j-- {
			row := all[rows[j]]
			f, numeric := row[s.pi].AsFloat()
			if !numeric {
				continue
			}
			if s.ai < 0 {
				return f, 0, 0, true
			}
			// Primary is the rewritten SUM; the view's value is AVG.
			if c, _ := row[s.ai].AsFloat(); !(c <= 0) { // a NaN count stays
				return f / c, f, c, true
			}
		}
		return 0, 0, 0, false
	}
	seen := false
	for _, r := range rows {
		row := all[r]
		f, numeric := row[s.pi].AsFloat()
		if !numeric {
			continue
		}
		switch s.fn {
		case engine.AggCount, engine.AggSum:
			v += f
		case engine.AggMin:
			if !seen || f < v {
				v = f
			}
		case engine.AggMax:
			if !seen || f > v {
				v = f
			}
		case engine.AggAvg:
			sum += f
			if s.ai >= 0 {
				if c, ok := row[s.ai].AsFloat(); ok {
					cnt += c
				}
			}
		default:
			continue
		}
		seen = true
	}
	if s.fn == engine.AggAvg {
		if !(cnt > 0) { // no rows, or no positive count
			return 0, 0, 0, false
		}
		return sum / cnt, sum, cnt, true
	}
	return v, 0, 0, seen
}

// mergedGroup is one label of a view with both sides' reductions.
type mergedGroup struct {
	key        string
	t, c       float64
	tSum, tCnt float64
	cSum, cCnt float64
	tHas, cHas bool
}

// deriveView aligns a view's two sides into ViewData — the View
// Processor of Figure 4 — by merging their label-sorted runs: the keys
// are the sorted union of the labels either side has a group under, an
// absent side reads zero, and both sides are normalized. It yields nil
// for a view with no groups on either side, and matches buildViewData
// over the two sides' label maps bit for bit. scratch is reused
// between calls and returned.
func deriveView(v View, t, c viewSide, scratch []mergedGroup) (*ViewData, []mergedGroup) {
	nt, nc := len(t.idx.runs)-1, len(c.idx.runs)-1
	for ti, ci := 0, 0; ti < nt || ci < nc; {
		var g mergedGroup
		takeT, takeC := ci >= nc, ti >= nt
		if !takeT && !takeC {
			d := strings.Compare(t.idx.label(ti), c.idx.label(ci))
			takeT, takeC = d <= 0, d >= 0
		}
		if takeT {
			g.key = t.idx.label(ti)
			g.t, g.tSum, g.tCnt, g.tHas = t.group(ti)
			ti++
		}
		if takeC {
			g.key = c.idx.label(ci)
			g.c, g.cSum, g.cCnt, g.cHas = c.group(ci)
			ci++
		}
		if g.tHas || g.cHas {
			scratch = append(scratch, g)
		}
	}
	n := len(scratch)
	if n == 0 {
		return nil, scratch
	}
	vd := &ViewData{
		View:          v,
		Keys:          make([]string, n),
		TargetRaw:     make([]float64, n),
		ComparisonRaw: make([]float64, n),
		targetHas:     make([]bool, n),
		compHas:       make([]bool, n),
	}
	var tAux, cAux *AvgAux
	if t.hasAux {
		tAux = &AvgAux{Sums: make([]float64, n), Counts: make([]float64, n)}
	}
	if c.hasAux {
		cAux = &AvgAux{Sums: make([]float64, n), Counts: make([]float64, n)}
	}
	for i, g := range scratch {
		vd.Keys[i] = g.key
		vd.TargetRaw[i], vd.ComparisonRaw[i] = g.t, g.c
		vd.targetHas[i], vd.compHas[i] = g.tHas, g.cHas
		if tAux != nil {
			tAux.Sums[i], tAux.Counts[i] = g.tSum, g.tCnt
		}
		if cAux != nil {
			cAux.Sums[i], cAux.Counts[i] = g.cSum, g.cCnt
		}
	}
	vd.Target, vd.Comparison = distance.Normalize(vd.TargetRaw), distance.Normalize(vd.ComparisonRaw)
	vd.TargetAux, vd.ComparisonAux = tAux, cAux
	return vd, scratch
}

// buildViewData aligns two sides held as label maps and normalizes:
// deriveView's result for phased execution, which merges its phases
// per label. Scoring is the exploration operator's job
// (ExplorationOperator.Score), which runs on the gathered batch —
// per-view utilities like deviation come out byte-identical to scoring
// here, and batch operators (outlier, similarity) get the cross-view
// context they need. A view with no groups on either side cannot be
// evaluated and yields nil.
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
