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
// Sums are kept in two tiers: sum/sumsq are plain float64 running sums
// for the current scan chunk (the hot path), and exSum/exSumSq fold the
// per-chunk partials exactly (see exactFloat). Chunk boundaries come
// from the table's fixed row grid, so a group's folded state is a
// function of the table contents alone — not of scan parallelism,
// phase ranges, or shard layout. That makes every aggregate, including
// AVG/VAR/STDDEV, partition-mergeable with bit-identical results.
//
// chunk tags which grid cell the running sums belong to (1-based;
// 0 = nothing pending), so folding happens lazily on the first add of
// a new chunk instead of by sweeping all groups at every boundary.
//
// The struct is the form state takes wherever it is handled one value
// at a time: the row-at-a-time reference scan, partial merging, and
// finalization. The chunk kernels hold the same fields column-wise
// across groups and fold at every chunk end instead (see physCols),
// converting to this form only to finalize or export.
type accumulator struct {
	count   int64
	sum     float64
	sumsq   float64
	exSum   exactFloat
	exSumSq exactFloat
	min     float64
	max     float64
	chunk   int32
	seen    bool
}

func (a *accumulator) addValue(v float64, chunk int32) {
	if a.chunk != chunk {
		a.fold()
		a.chunk = chunk
	}
	a.count++
	a.sum += v
	a.sumsq += v * v
	if !a.seen || v < a.min {
		a.min = v
	}
	if !a.seen || v > a.max {
		a.max = v
	}
	a.seen = true
}

func (a *accumulator) addCountOnly() { a.count++ }

// fold moves the current chunk's running sums into the exact totals.
func (a *accumulator) fold() {
	if a.sum != 0 {
		a.exSum.Add(a.sum)
		a.sum = 0
	}
	if a.sumsq != 0 {
		a.exSumSq.Add(a.sumsq)
		a.sumsq = 0
	}
}

func (a *accumulator) merge(b *accumulator) {
	a.fold()
	b.fold()
	a.chunk, b.chunk = 0, 0
	a.count += b.count
	a.exSum.Merge(&b.exSum)
	a.exSumSq.Merge(&b.exSumSq)
	if b.seen {
		if !a.seen || b.min < a.min {
			a.min = b.min
		}
		if !a.seen || b.max > a.max {
			a.max = b.max
		}
		a.seen = true
	}
}

// mergeState folds a serialized partial-accumulator state (a disjoint
// partition of the same group) into a, via direct digit additions —
// the allocation-light path incremental execution merges cached chunk
// partials with.
func (a *accumulator) mergeState(st AccState) {
	a.fold()
	a.chunk = 0
	a.count += st.Count
	a.exSum.MergeState(st.Sum)
	a.exSumSq.MergeState(st.SumSq)
	if st.Seen {
		if !a.seen || st.Min < a.min {
			a.min = st.Min
		}
		if !a.seen || st.Max > a.max {
			a.max = st.Max
		}
		a.seen = true
	}
}

// sumValue / sumSqValue round the exact totals (including any pending
// chunk) to float64.
func (a *accumulator) sumValue() float64 {
	a.fold()
	return a.exSum.Round()
}

func (a *accumulator) sumSqValue() float64 {
	a.fold()
	return a.exSumSq.Round()
}

// finalize produces the aggregate's result value. COUNT of an empty
// group is 0; every other aggregate of an empty group is NULL, matching
// SQL semantics.
func (a *accumulator) finalize(f AggFunc) Value {
	switch f {
	case AggCount:
		return Int(a.count)
	case AggSum:
		if a.count == 0 {
			return NullValue(TypeFloat)
		}
		return Float(a.sumValue())
	case AggAvg:
		if a.count == 0 {
			return NullValue(TypeFloat)
		}
		return Float(a.sumValue() / float64(a.count))
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
		mean := a.sumValue() / n
		v := a.sumSqValue()/n - mean*mean
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
