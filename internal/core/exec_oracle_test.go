package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"seedb/internal/engine"
)

// The oracle: view derivation the map-based way runUnit used before its
// label index — per view and side, a map from Value.Format label to
// value (extractSide, marginalize), aligned by distance.Align
// (buildViewData) with the AVG partials looked up by key
// (attachAvgAux). TestRunUnitMatchesMapOracle holds runUnit's ViewData
// to it bit for bit.

// avgAuxMaps holds an AVG view's per-group sum and count partials for
// one side, keyed by group label.
type avgAuxMaps struct {
	sums   map[string]float64
	counts map[string]float64
}

// attachAvgAux aligns aux partials with the view's key order.
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

// extractSide reads one view's per-group values out of a
// single-dimension result.
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
// composite-key result.
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
	return out, avgAux
}

// oracleViews derives u's views from its results the map way, in
// runUnit's order.
func oracleViews(u *execUnit, compRes, targRes []*engine.Result, combined bool) []*ViewData {
	var out []*ViewData
	for di, dim := range u.dims {
		cRes, tRes := compRes[resIndex(u, di)], targRes[resIndex(u, di)]
		for _, vc := range u.bindings[dim] {
			var tMap, cMap map[string]float64
			var tAux, cAux *avgAuxMaps
			if u.composite {
				cMap, cAux = marginalize(cRes, di, vc, false, combined)
				tMap, tAux = marginalize(tRes, di, vc, true, combined)
			} else {
				cMap, cAux = extractSide(cRes, vc, false, combined)
				tMap, tAux = extractSide(tRes, vc, true, combined)
			}
			if vd := buildViewData(vc.view, tMap, cMap); vd != nil {
				attachAvgAux(vd, tAux, cAux)
				out = append(out, vd)
			}
		}
	}
	return out
}

// cannedBackend answers each shared scan with the next canned result
// set.
type cannedBackend struct {
	scans [][]*engine.Result
}

func (b *cannedBackend) Run(context.Context, *engine.Query) (*engine.Result, error) {
	return nil, errors.New("cannedBackend: Run")
}

func (b *cannedBackend) RunSharedScan(context.Context, *engine.Query, []engine.GroupingSet) ([]*engine.Result, error) {
	if len(b.scans) == 0 {
		return nil, errors.New("cannedBackend: no scan left")
	}
	res := b.scans[0]
	b.scans = b.scans[1:]
	return res, nil
}

func (b *cannedBackend) Signature() string { return "canned" }

// sameFloats compares bit patterns, so NaNs and signed zeros count.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameAux(a, b *AvgAux) bool {
	if a == nil || b == nil {
		return a == b
	}
	return sameFloats(a.Sums, b.Sums) && sameFloats(a.Counts, b.Counts)
}

// diffViewData names the first field where got and want differ.
func diffViewData(got, want *ViewData) string {
	eqKeys := len(got.Keys) == len(want.Keys)
	for i := 0; eqKeys && i < len(got.Keys); i++ {
		eqKeys = got.Keys[i] == want.Keys[i]
	}
	eqHas := func(a, b []bool) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	switch {
	case got.View != want.View:
		return fmt.Sprintf("View %v vs %v", got.View, want.View)
	case !eqKeys:
		return fmt.Sprintf("Keys %q vs %q", got.Keys, want.Keys)
	case !sameFloats(got.TargetRaw, want.TargetRaw):
		return fmt.Sprintf("TargetRaw %v vs %v", got.TargetRaw, want.TargetRaw)
	case !sameFloats(got.ComparisonRaw, want.ComparisonRaw):
		return fmt.Sprintf("ComparisonRaw %v vs %v", got.ComparisonRaw, want.ComparisonRaw)
	case !sameFloats(got.Target, want.Target):
		return fmt.Sprintf("Target %v vs %v", got.Target, want.Target)
	case !sameFloats(got.Comparison, want.Comparison):
		return fmt.Sprintf("Comparison %v vs %v", got.Comparison, want.Comparison)
	case !eqHas(got.targetHas, want.targetHas):
		return fmt.Sprintf("targetHas %v vs %v", got.targetHas, want.targetHas)
	case !eqHas(got.compHas, want.compHas):
		return fmt.Sprintf("compHas %v vs %v", got.compHas, want.compHas)
	case !sameAux(got.TargetAux, want.TargetAux):
		return fmt.Sprintf("TargetAux %+v vs %+v", got.TargetAux, want.TargetAux)
	case !sameAux(got.ComparisonAux, want.ComparisonAux):
		return fmt.Sprintf("ComparisonAux %+v vs %+v", got.ComparisonAux, want.ComparisonAux)
	case math.Float64bits(got.Utility) != math.Float64bits(want.Utility):
		return fmt.Sprintf("Utility %v vs %v", got.Utility, want.Utility)
	}
	return ""
}

// randUnit builds a random execution unit of one of the three shapes
// (single dimension, shared grouping sets, composite key) with views of
// every aggregate, and the results of one scan of it: labels that
// collide (a NULL group beside "NULL", 1.0 beside "1.0"), NULL,
// non-numeric and non-finite aggregates, and AVG partials with zero,
// negative, NaN and NULL counts.
func randUnit(r *rand.Rand, combined bool) (*execUnit, func() []*engine.Result) {
	u := &execUnit{bindings: map[string][]viewCols{}}
	nd := 1
	switch r.Intn(3) {
	case 1:
		nd = 1 + r.Intn(3)
		u.sets = make([][]string, nd)
	case 2:
		nd = 2 + r.Intn(2)
		u.composite = true
	}
	var cols []string
	for d := 0; d < nd; d++ {
		dim := fmt.Sprintf("d%d", d)
		u.dims = append(u.dims, dim)
		for j := r.Intn(4); j >= 0; j-- {
			fn := []engine.AggFunc{engine.AggCount, engine.AggSum, engine.AggMin, engine.AggMax, engine.AggAvg}[r.Intn(5)]
			p := fmt.Sprintf("%s_%d", dim, j)
			vc := viewCols{view: View{Dimension: dim, Measure: "m" + p, Func: fn}, cPrimary: "c" + p, tPrimary: "t" + p}
			cols = append(cols, vc.cPrimary, vc.tPrimary)
			if fn == engine.AggAvg && (u.composite || r.Intn(2) == 0) {
				vc.cAux, vc.tAux = "ca"+p, "ta"+p
				cols = append(cols, vc.cAux, vc.tAux)
			}
			u.bindings[dim] = append(u.bindings[dim], vc)
		}
	}
	labels := []engine.Value{
		engine.String("a"), engine.String("b"), engine.String("NULL"), engine.NullValue(engine.TypeString),
		engine.String(""), engine.String("é"), engine.Float(1), engine.String("1.0"), engine.Int(2), engine.String("2"),
		engine.Float(math.Copysign(0, -1)), engine.String("-0.0"),
	}
	value := func() engine.Value {
		switch r.Intn(12) {
		case 0:
			return engine.NullValue(engine.TypeFloat)
		case 1:
			return engine.Float([]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.MaxFloat64}[r.Intn(6)])
		case 2:
			return engine.Int(int64(r.Intn(9) - 2))
		case 3:
			return engine.String("x")
		default:
			return engine.Float((r.Float64() - 0.3) * 100)
		}
	}
	count := func() engine.Value {
		switch r.Intn(8) {
		case 0:
			return engine.NullValue(engine.TypeInt)
		case 1:
			return engine.Float([]float64{0, -1, math.NaN(), 0.5}[r.Intn(4)])
		default:
			return engine.Int(int64(1 + r.Intn(5)))
		}
	}
	keyCols := 1
	if u.composite {
		keyCols = nd
	}
	mkResult := func() *engine.Result {
		res := &engine.Result{}
		for k := 0; k < keyCols; k++ {
			res.Columns = append(res.Columns, fmt.Sprintf("key%d", k))
		}
		res.Columns = append(res.Columns, cols...)
		for n := r.Intn(25); n > 0; n-- {
			row := make([]engine.Value, 0, len(res.Columns))
			for k := 0; k < keyCols; k++ {
				row = append(row, labels[r.Intn(len(labels))])
			}
			for _, c := range cols {
				if c[1] == 'a' { // ca…/ta…: an AVG count
					row = append(row, count())
				} else {
					row = append(row, value())
				}
			}
			res.Rows = append(res.Rows, row)
		}
		return res
	}
	scan := func() []*engine.Result {
		n := 1
		if u.sets != nil {
			n = nd
		}
		out := make([]*engine.Result, n)
		for i := range out {
			out[i] = mkResult()
		}
		return out
	}
	return u, scan
}

// TestRunUnitMatchesMapOracle holds runUnit's ViewData — keys, raw
// values, distributions, has-bits and AVG partials — bit for bit to
// the map-based derivation, over random units of every shape and all
// three scan layouts (combined, target-only, target plus comparison).
func TestRunUnitMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for trial := 0; trial < 3000; trial++ {
		combined := r.Intn(3) == 0
		needsRef := combined || r.Intn(2) == 0
		u, scan := randUnit(r, combined)
		be := &cannedBackend{}
		var compRes, targRes []*engine.Result
		if combined || !needsRef {
			compRes = scan()
			targRes = compRes
			be.scans = [][]*engine.Result{compRes}
		} else {
			compRes, targRes = scan(), scan()
			be.scans = [][]*engine.Result{compRes, targRes}
		}
		opts := DefaultOptions()
		opts.CombineTargetComparison = combined
		got, _, err := runUnit(context.Background(), nil, be, nil, nil, "", u, Query{Table: "t"}, opts, needsRef, false, false, 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleViews(u, compRes, targRes, combined)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d views, oracle %d", trial, len(got), len(want))
		}
		for i := range got {
			if d := diffViewData(got[i], want[i]); d != "" {
				t.Fatalf("trial %d (composite=%v sets=%v combined=%v needsRef=%v) view %v: %s",
					trial, u.composite, u.sets != nil, combined, needsRef, want[i].View, d)
			}
		}
	}
}
