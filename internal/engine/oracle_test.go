package engine

import (
	"fmt"
	"math"
	"math/big"
	"slices"
)

// The oracle: an aggregation query evaluated the slow, obvious way, as
// the differential reference for the scan engine. It shares none of the
// engine's machinery — boxed Values, predicates walked as an AST, a map
// of groups that keeps every value it was fed, math/big sums — only its
// SPEC, restated here: a float sum runs in row order within each cell
// of the absolute ChunkRows grid, cell sums are added exactly and
// rounded once; the first of equal extremes wins and NaN is sticky for
// MIN/MAX; float group keys are canonical. Engine code it may call:
// binFloor, canonFloat, sampler.keep, Value.Compare (pure scalar spec).

// oracleSum adds float64s exactly: finite values as whole multiples of
// 2^-1074, non-finite ones by IEEE addition (order-free on ±Inf/NaN).
type oracleSum struct {
	units   big.Int
	special float64
}

func (s *oracleSum) add(v float64) {
	if v != v || math.IsInf(v, 0) {
		s.special += v
		return
	}
	f := new(big.Float).SetFloat64(v)
	u, _ := f.SetMantExp(f, 1074).Int(nil) // exact: now a whole number
	s.units.Add(&s.units, u)
}

// round returns the total as the nearest float64, ties to even.
func (s *oracleSum) round() float64 {
	switch {
	case s.special != s.special:
		return math.NaN()
	case s.special != 0:
		return s.special
	}
	f := new(big.Float).SetInt(&s.units) // exact: precision = bit length
	r, _ := f.SetMantExp(f, -1074).Float64()
	return r
}

// oracleAgg is everything one aggregate of one group was fed: n rows,
// and for a numeric measure each row's index and value, in row order.
type oracleAgg struct {
	n    int64
	rows []int
	vals []float64
}

// cellSum sums f(v) the way the spec says: a plain float64 running sum
// per grid cell (cells also end at every cut, which is where a scan
// range was split), cell sums added exactly, one rounding.
func (a *oracleAgg) cellSum(cuts []int, f func(float64) float64) float64 {
	var total oracleSum
	run := 0.0
	for i, v := range a.vals {
		if i > 0 {
			prev, row := a.rows[i-1], a.rows[i]
			cut := slices.ContainsFunc(cuts, func(c int) bool { return prev < c && c <= row })
			if cut || prev/ChunkRows != row/ChunkRows {
				total.add(run)
				run = 0
			}
		}
		run += f(v)
	}
	total.add(run)
	return total.round()
}

// extreme returns the smallest (or largest) value, the earliest of
// equals, or NaN if any value is NaN.
func (a *oracleAgg) extreme(largest bool) float64 {
	best := a.vals[0]
	for _, v := range a.vals {
		if v != v {
			return math.NaN()
		}
		if largest && v > best || !largest && v < best {
			best = v
		}
	}
	return best
}

func (a *oracleAgg) finalize(f AggFunc, cuts []int) Value {
	if f == AggCount {
		return Int(a.n)
	}
	if len(a.vals) == 0 {
		return NullValue(TypeFloat)
	}
	n := float64(len(a.vals))
	sum := a.cellSum(cuts, func(v float64) float64 { return v })
	switch f {
	case AggSum:
		return Float(sum)
	case AggAvg:
		return Float(sum / n)
	case AggMin, AggMax:
		return Float(a.extreme(f == AggMax))
	}
	mean := sum / n
	v := a.cellSum(cuts, func(v float64) float64 { return v * v })/n - mean*mean
	if v < 0 {
		v = 0
	}
	if f == AggStddev {
		v = math.Sqrt(v)
	}
	return Float(v)
}

// oracleCell reads one table cell as a boxed Value.
func oracleCell(t *Table, name string, row int) Value {
	col, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return col.Value(row)
}

// oracleMatch evaluates a predicate on one row by walking its AST.
// SQL WHERE semantics: a comparison with NULL on either side is false;
// a float NaN compares "equal" (neither less nor greater) to anything.
func oracleMatch(t *Table, p Predicate, row int) bool {
	switch p := p.(type) {
	case nil:
		return true
	case *AndPred:
		return !slices.ContainsFunc(p.Children, func(c Predicate) bool { return !oracleMatch(t, c, row) })
	case *OrPred:
		return slices.ContainsFunc(p.Children, func(c Predicate) bool { return oracleMatch(t, c, row) })
	case *NotPred:
		return !oracleMatch(t, p.Child, row)
	case *NullPred:
		return oracleCell(t, p.Column, row).Null != p.Negate
	case *InPred:
		v := oracleCell(t, p.Column, row)
		hit := slices.ContainsFunc(p.Values, func(w Value) bool { return !w.Null && w == v }) // NaN != NaN, as in SQL
		return !v.Null && hit != p.Negate
	case *ComparePred:
		v, w := oracleCell(t, p.Column, row), p.Value
		if v.Null || w.Null {
			return false
		}
		var lt, gt bool
		switch {
		case v.Kind == TypeString && w.Kind == TypeString:
			lt, gt = v.S < w.S, v.S > w.S
		case v.Kind == TypeInt && w.Kind == TypeInt, v.Kind == TypeTime && w.Kind == TypeTime:
			lt, gt = v.I < w.I, v.I > w.I
		case v.Kind.Numeric() && w.Kind.Numeric():
			a, _ := v.AsFloat()
			b, _ := w.AsFloat()
			lt, gt = a < b, a > b
		default:
			panic(fmt.Sprintf("oracle: cannot compare %v column %q with %v", v.Kind, p.Column, w.Kind))
		}
		return map[CmpOp]bool{OpEq: !lt && !gt, OpNe: lt || gt, OpLt: lt, OpLe: !gt, OpGt: gt, OpGe: !lt}[p.Op]
	}
	panic(fmt.Sprintf("oracle: unknown predicate %T", p))
}

// oracleKey returns a row's group-key value for one grouping column:
// the column value, lowered to its bin's floor when a width is given
// (integral, at least 1, for INT/TIMESTAMP), floats canonicalized.
func oracleKey(v Value, width float64) Value {
	switch {
	case v.Null:
	case v.Kind == TypeFloat && width > 0:
		v.F = canonFloat(binFloor(v.F, width))
	case v.Kind == TypeFloat:
		v.F = canonFloat(v.F)
	case v.Kind != TypeString && int64(width) > 1:
		m := v.I % int64(width)
		if m < 0 {
			m += int64(width)
		}
		v.I -= m
	}
	return v
}

// oracleRun evaluates q (GroupBy/Aggs/BinWidths/Where/sampling/row
// range; no ORDER BY or LIMIT) over tab. cuts lists rows at which the
// scan range was split into separately scanned, then merged, pieces.
func oracleRun(tab *Table, q *Query, cuts ...int) *Result {
	keys, groups := map[string][]Value{}, map[string][]oracleAgg{}
	lo, hi := q.RowLo, q.RowHi
	if hi <= 0 {
		lo, hi = 0, tab.NumRows()
	}
	smp := newSampler(q.SampleFraction, q.SampleSeed, q.SampleBase)
	for row := lo; row < hi; row++ {
		if smp != nil && !smp.keep(row) || !oracleMatch(tab, q.Where, row) {
			continue
		}
		key := make([]Value, len(q.GroupBy))
		for i, name := range q.GroupBy {
			key[i] = oracleKey(oracleCell(tab, name, row), q.BinWidths[name])
		}
		id := fmt.Sprintf("%#v", key) // %#v spells floats exactly and tells NULL from zero
		if groups[id] == nil {
			keys[id], groups[id] = key, make([]oracleAgg, len(q.Aggs))
		}
		for i, spec := range q.Aggs {
			if !oracleMatch(tab, spec.Filter, row) {
				continue
			}
			a := &groups[id][i]
			if spec.Column == "" {
				a.n++ // COUNT(*)
			} else if v := oracleCell(tab, spec.Column, row); !v.Null {
				a.n++
				if f, ok := v.AsFloat(); ok {
					a.rows, a.vals = append(a.rows, row), append(a.vals, f)
				}
			}
		}
	}
	res := &Result{Columns: append([]string(nil), q.GroupBy...)}
	for _, spec := range q.Aggs {
		res.Columns = append(res.Columns, spec.Name())
	}
	for id, aggs := range groups {
		out := keys[id]
		for i := range aggs {
			out = append(out, aggs[i].finalize(q.Aggs[i].Func, cuts))
		}
		res.Rows = append(res.Rows, out)
	}
	slices.SortFunc(res.Rows, func(a, b []Value) int {
		for k := range q.GroupBy {
			if c := a[k].Compare(b[k]); c != 0 {
				return c
			}
		}
		return 0
	})
	return res
}
