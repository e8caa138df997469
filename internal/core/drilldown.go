package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"seedb/internal/engine"
)

// Drill-down (paper §1 step 4): once SeeDB recommends a view, the
// analyst can "further interact with the displayed views (e.g., by
// drilling down or rolling up)". DrillDown refines the analyst query
// with a group of a recommended view — Q' = Q AND (a = v), or the bin
// range for binned dimensions — and re-runs the recommendation
// pipeline on the narrower subset.

// GroupPredicate builds the predicate selecting one group of a view:
// equality for discrete dimensions, the half-open bin range
// [lo, lo+width) for binned ones, and IS NULL for the NULL group.
// The label must be one of the view's result keys (ViewData.Keys).
func GroupPredicate(v View, tb *engine.Table, label string) (engine.Predicate, error) {
	col, err := tb.Column(v.Dimension)
	if err != nil {
		return nil, err
	}
	if label == "NULL" {
		return engine.IsNull(v.Dimension), nil
	}
	val, err := parseLabel(col.Type(), label)
	if err != nil {
		return nil, fmt.Errorf("core: drill-down on %s: %w", v, err)
	}
	if v.BinWidth <= 0 {
		return engine.Eq(v.Dimension, val), nil
	}
	// Binned group: [lo, lo+width).
	switch col.Type() {
	case engine.TypeFloat:
		lo := val.F
		return engine.And(
			engine.Compare(v.Dimension, engine.OpGe, engine.Float(lo)),
			engine.Compare(v.Dimension, engine.OpLt, engine.Float(lo+v.BinWidth)),
		), nil
	case engine.TypeInt:
		lo := val.I
		w := int64(v.BinWidth)
		if w < 1 {
			w = 1
		}
		return engine.And(
			engine.Compare(v.Dimension, engine.OpGe, engine.Int(lo)),
			engine.Compare(v.Dimension, engine.OpLt, engine.Int(lo+w)),
		), nil
	case engine.TypeTime:
		lo := val.I
		w := int64(v.BinWidth)
		if w < 1 {
			w = 1
		}
		return engine.And(
			engine.Compare(v.Dimension, engine.OpGe, engine.Value{Kind: engine.TypeTime, I: lo}),
			engine.Compare(v.Dimension, engine.OpLt, engine.Value{Kind: engine.TypeTime, I: lo + w}),
		), nil
	default:
		return nil, fmt.Errorf("core: cannot drill into binned %v dimension", col.Type())
	}
}

// parseLabel converts a result key label back into a typed value.
// Labels come from Value.Format, so the round trip is exact for
// strings and integers and second-precision for timestamps.
func parseLabel(t engine.Type, label string) (engine.Value, error) {
	switch t {
	case engine.TypeString:
		return engine.String(label), nil
	case engine.TypeInt:
		i, err := strconv.ParseInt(label, 10, 64)
		if err != nil {
			return engine.Value{}, fmt.Errorf("parsing %q as INT: %w", label, err)
		}
		return engine.Int(i), nil
	case engine.TypeFloat:
		f, err := strconv.ParseFloat(label, 64)
		if err != nil {
			return engine.Value{}, fmt.Errorf("parsing %q as FLOAT: %w", label, err)
		}
		return engine.Float(f), nil
	case engine.TypeTime:
		ts, err := time.Parse(time.RFC3339, label)
		if err != nil {
			return engine.Value{}, fmt.Errorf("parsing %q as TIMESTAMP: %w", label, err)
		}
		return engine.Time(ts), nil
	default:
		return engine.Value{}, fmt.Errorf("unsupported label type %v", t)
	}
}

// RefineQuery builds the drilled-down analyst query: the original
// predicate conjoined with the group predicate for one group of a
// recommended view. Exposed so callers that schedule work by query
// signature (the service layer) can refine first and then treat the
// drill-down as an ordinary Recommend on the refined query.
func (e *Engine) RefineQuery(q Query, v View, label string) (Query, error) {
	tb, err := e.ex.Catalog().Table(q.Table)
	if err != nil {
		return Query{}, err
	}
	group, err := GroupPredicate(v, tb, label)
	if err != nil {
		return Query{}, err
	}
	refined := Query{Table: q.Table}
	if q.Predicate != nil {
		refined.Predicate = engine.And(q.Predicate, group)
	} else {
		refined.Predicate = group
	}
	return refined, nil
}

// DrillDown re-runs Recommend on the subset refined by one group of a
// previously recommended view. The original query's predicate is
// conjoined with the group predicate; the drilled dimension joins the
// excluded set automatically (it is now part of the selection).
func (e *Engine) DrillDown(ctx context.Context, q Query, v View, label string, opts Options) (*Result, error) {
	refined, err := e.RefineQuery(q, v, label)
	if err != nil {
		return nil, err
	}
	return e.Recommend(ctx, refined, opts)
}
