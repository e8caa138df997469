package engine

import (
	"fmt"
	"math"
	"strings"
)

// AggFunc identifies an aggregate function. The set matches the
// aggregate functions F the paper considers over measure attributes,
// plus variance/stddev which the demo's metadata collector also uses.
type AggFunc int

// Supported aggregate functions.
const (
	AggCount AggFunc = iota // COUNT(m) — non-null count; COUNT(*) when Column==""
	AggSum
	AggAvg
	AggMin
	AggMax
	AggVariance // population variance
	AggStddev   // population standard deviation
)

// String returns the SQL name of the aggregate.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggVariance:
		return "VAR"
	case AggStddev:
		return "STDDEV"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// ParseAggFunc maps a SQL aggregate name (case-insensitive) to AggFunc.
func ParseAggFunc(name string) (AggFunc, error) {
	switch strings.ToUpper(name) {
	case "COUNT":
		return AggCount, nil
	case "SUM":
		return AggSum, nil
	case "AVG", "MEAN":
		return AggAvg, nil
	case "MIN":
		return AggMin, nil
	case "MAX":
		return AggMax, nil
	case "VAR", "VARIANCE":
		return AggVariance, nil
	case "STDDEV", "STD":
		return AggStddev, nil
	default:
		return 0, fmt.Errorf("engine: unknown aggregate function %q", name)
	}
}

// AggSpec describes one aggregate output of a query: a function over a
// measure column, optionally restricted to rows matching Filter. The
// Filter field is the engine half of SeeDB's "combine target and
// comparison view query" optimization: the combined query computes
// f(m) twice per group, once unfiltered (comparison view) and once
// filtered by the user's predicate (target view), in a single scan.
type AggSpec struct {
	Func   AggFunc
	Column string    // measure column; empty means COUNT(*)
	Filter Predicate // optional row filter for this aggregate only
	Alias  string    // result column name; defaulted if empty
}

// Name returns the output column name for the aggregate.
func (a AggSpec) Name() string {
	if a.Alias != "" {
		return a.Alias
	}
	col := a.Column
	if col == "" {
		col = "*"
	}
	base := fmt.Sprintf("%s(%s)", a.Func, col)
	if a.Filter != nil {
		base += " FILTER"
	}
	return base
}

// accumulator carries enough state to finalize any AggFunc and to merge
// with a partial accumulator from another partition.
//
// Sums are exact (see exactFloat): the scan adds each grid cell's plain
// float64 running sum, and everything above a cell — parallel workers,
// phase ranges, shards, cached chunk partials — combines by exact
// addition. Cell boundaries come from the table's fixed row grid, so a
// group's state is a function of the table contents alone, which makes
// every aggregate, including AVG/VAR/STDDEV, partition-mergeable with
// bit-identical results.
//
// The struct is the form state takes wherever it is handled one group at
// a time: partial merging and finalization. The chunk kernels hold the
// same fields column-wise across groups (see physCols) and convert to
// this form only to finalize or export.
type accumulator struct {
	count   int64
	exSum   exactFloat
	exSumSq exactFloat
	min     float64
	max     float64
	seen    bool
}

// mergeExtremes folds another partition's extremes (omn, omx) into
// (*mn, *mx). NaN is sticky: a group holding a NaN anywhere has min =
// max = NaN, as its SUM has (exactFloat.special) — were a NaN only
// adopted by the partition it opens, MIN/MAX would depend on where the
// partition boundaries fall.
func mergeExtremes(seen *bool, mn, mx *float64, omn, omx float64) {
	if !*seen || omn < *mn || omn != omn {
		*mn = omn
	}
	if !*seen || omx > *mx || omx != omx {
		*mx = omx
	}
	*seen = true
}

// mergeState folds a serialized partial-accumulator state (a disjoint
// partition of the same group) into a, via direct digit additions —
// the allocation-light path incremental execution merges cached chunk
// partials with.
func (a *accumulator) mergeState(st *AccState) {
	a.count += st.Count
	a.exSum.MergeState(st.Sum)
	a.exSumSq.MergeState(st.SumSq)
	if st.Seen {
		mergeExtremes(&a.seen, &a.min, &a.max, st.Min, st.Max)
	}
}

// finalState is what finalization reads of one physical accumulator: its
// count and extremes, and its exact sums rounded once for every logical
// aggregate it backs.
type finalState struct {
	count      int64
	sum, sumSq float64
	min, max   float64
	seen       bool
}

func (a *accumulator) final() finalState {
	return finalState{count: a.count, sum: a.exSum.Round(), sumSq: a.exSumSq.Round(), min: a.min, max: a.max, seen: a.seen}
}

func (st *AccState) final() finalState {
	return finalState{count: st.Count, sum: st.Sum.round(), sumSq: st.SumSq.round(), min: st.Min, max: st.Max, seen: st.Seen}
}

// finalize produces the aggregate's result value. COUNT of an empty
// group is 0; every other aggregate of an empty group is NULL, matching
// SQL semantics.
func (a *finalState) finalize(f AggFunc) Value {
	switch f {
	case AggCount:
		return Int(a.count)
	case AggSum:
		if a.count == 0 {
			return NullValue(TypeFloat)
		}
		return Float(a.sum)
	case AggAvg:
		if a.count == 0 {
			return NullValue(TypeFloat)
		}
		return Float(a.sum / float64(a.count))
	case AggMin:
		if !a.seen {
			return NullValue(TypeFloat)
		}
		return Float(a.min)
	case AggMax:
		if !a.seen {
			return NullValue(TypeFloat)
		}
		return Float(a.max)
	case AggVariance:
		if a.count == 0 {
			return NullValue(TypeFloat)
		}
		n := float64(a.count)
		mean := a.sum / n
		v := a.sumSq/n - mean*mean
		if v < 0 { // numerical noise
			v = 0
		}
		return Float(v)
	case AggStddev:
		v := a.finalize(AggVariance)
		if v.Null {
			return v
		}
		return Float(math.Sqrt(v.F))
	default:
		return NullValue(TypeFloat)
	}
}
