// Package core implements SeeDB itself: view-space enumeration, the
// deviation-based utility metric, view-space pruning, the
// query-combining optimizer, the view processor, and top-k selection.
// It corresponds to the "SeeDB Backend" box of the paper's Figure 4
// (Metadata Collector → Query Generator → Optimizer → DBMS → View
// Processor), running on the embedded engine in internal/engine.
package core

import (
	"fmt"
	"strings"

	"seedb/internal/distance"
	"seedb/internal/engine"
)

// View is the paper's view triple (a, m, f): group by dimension
// attribute a and aggregate measure m with function f. "We represent
// V_i as a triple (a, m, f)" (§2).
type View struct {
	Dimension string         // a — the grouping attribute
	Measure   string         // m — the measure attribute ("" only for COUNT(*))
	Func      engine.AggFunc // f — the aggregate function

	// BinWidth > 0 bins a continuous (numeric or timestamp) dimension
	// into equi-width buckets before grouping — the "binning"
	// operation of the paper's §1 workflow. 0 groups raw values.
	BinWidth float64
}

// Key is a stable identifier for the view, usable as a map key.
func (v View) Key() string {
	k := v.Dimension + "\x00" + v.Measure + "\x00" + v.Func.String()
	if v.BinWidth > 0 {
		k += fmt.Sprintf("\x00bin%g", v.BinWidth)
	}
	return k
}

// dimLabel renders the dimension with its binning, e.g. "bin(price, 10)".
func (v View) dimLabel() string {
	if v.BinWidth > 0 {
		return fmt.Sprintf("bin(%s, %g)", v.Dimension, v.BinWidth)
	}
	return v.Dimension
}

// String renders the view in f(m) BY a form.
func (v View) String() string {
	m := v.Measure
	if m == "" {
		m = "*"
	}
	return fmt.Sprintf("%s(%s) BY %s", v.Func, m, v.dimLabel())
}

// AggSpec returns the engine aggregate spec for the view's f(m), with
// the given alias and optional filter.
func (v View) AggSpec(alias string, filter engine.Predicate) engine.AggSpec {
	return engine.AggSpec{Func: v.Func, Column: v.Measure, Filter: filter, Alias: alias}
}

// TargetSQL renders the target view query as SQL text (paper §2:
// SELECT a, f(m) FROM D_Q GROUP BY a). The rendering is for display
// and logging; execution goes through engine plans directly.
func (v View) TargetSQL(table string, predicate engine.Predicate) string {
	where := ""
	if predicate != nil {
		where = " WHERE " + predicate.String()
	}
	m := v.Measure
	if m == "" {
		m = "*"
	}
	return fmt.Sprintf("SELECT %s, %s(%s) FROM %s%s GROUP BY %s",
		v.dimLabel(), v.Func, m, table, where, v.dimLabel())
}

// ComparisonSQL renders the comparison view query (same, on all of D).
func (v View) ComparisonSQL(table string) string {
	return v.TargetSQL(table, nil)
}

// Query is the analyst's input query Q: a selection over a single
// (fact) table. The rows matching Predicate form D_Q; the whole table
// is D.
type Query struct {
	Table     string
	Predicate engine.Predicate // nil selects the whole table (D_Q = D)
}

// String renders Q as SQL.
func (q Query) String() string {
	s := "SELECT * FROM " + q.Table
	if q.Predicate != nil {
		s += " WHERE " + q.Predicate.String()
	}
	return s
}

// ViewData is a fully evaluated view: the aligned group labels, the
// raw aggregate vectors, and their normalized distributions for both
// the target (D_Q) and comparison (D) sides.
type ViewData struct {
	View View

	// Keys are the aligned group labels (union of both sides), sorted.
	Keys []string
	// TargetRaw / ComparisonRaw hold f(m) per group, zero when the
	// group is absent on that side.
	TargetRaw     []float64
	ComparisonRaw []float64
	// Target / Comparison are the normalized probability distributions.
	Target     distance.Distribution
	Comparison distance.Distribution

	// TargetAux / ComparisonAux carry the SUM and COUNT partials
	// backing an AVG view when it was computed in partition-mergeable
	// form (phased execution): averages cannot be merged across row
	// ranges directly, but their sum+count pairs can. nil for other
	// aggregates and for single-pass execution.
	TargetAux     *AvgAux
	ComparisonAux *AvgAux

	// targetHas / compHas say, aligned with Keys, which groups each side
	// produced — a zero raw is also what an absent group reads, and a
	// MIN or MAX of exactly 0 is not an absent group. Phased execution
	// merges only present groups (see phasedAcc.merge).
	targetHas, compHas []bool

	// Utility = S(P[V(D_Q)], P[V(D)]) for the configured metric.
	Utility float64
}

// AvgAux is the partition-mergeable form of an AVG view's side: per
// group the sum of the measure and the count of non-null values,
// aligned with ViewData.Keys.
type AvgAux struct {
	Sums   []float64
	Counts []float64
}

// MaxDeltaKey returns the group label with the largest absolute
// probability difference between target and comparison — the "value
// with maximum change" statistic the frontend shows per view. Equal
// deltas break toward the lexicographically smallest key, explicitly:
// Keys are sorted by construction (deriveView, buildViewData), but
// operator annotations must stay stable even for a hand-built ViewData
// whose keys arrive in arbitrary order.
func (d *ViewData) MaxDeltaKey() (string, float64) {
	best, bestDelta := "", -1.0
	for i, k := range d.Keys {
		delta := d.Target[i] - d.Comparison[i]
		if delta < 0 {
			delta = -delta
		}
		if delta > bestDelta || (delta == bestDelta && k < best) {
			best, bestDelta = k, delta
		}
	}
	return best, bestDelta
}

// Recommendation is one ranked view returned to the frontend.
type Recommendation struct {
	Rank int
	Data *ViewData

	// Represents lists dimension attributes whose views were pruned as
	// correlated with this view's dimension (this view stands in for
	// them).
	Represents []string

	// TargetSQL / ComparisonSQL are the display SQL texts.
	TargetSQL     string
	ComparisonSQL string

	// ChartType is the recommended visualization family ("bar",
	// "line", or "table"), scored by internal/viz from the view's
	// dimension cardinality, measure shape, and the exploration
	// operator's intent.
	ChartType string
}

// ViewScore is a (view, utility) pair; the processor records one per
// evaluated view so the demo can also show low-utility ("bad") views.
type ViewScore struct {
	View    View
	Utility float64
}

// PruneReason explains why a candidate view was eliminated before
// execution.
type PruneReason string

// Prune reasons reported in RunStats.
const (
	PrunedLowVariance PruneReason = "low-variance dimension"
	PrunedCorrelated  PruneReason = "correlated with representative dimension"
	PrunedPhased      PruneReason = "confidence-interval pruning"
)

// RunStats reports what a Recommend call did — candidate counts,
// pruning decisions, and executor-level effort. The experiments print
// these to show each optimization's effect.
type RunStats struct {
	CandidateViews int
	ExecutedViews  int
	PrunedViews    map[PruneReason]int
	PrunedDims     map[string]PruneReason

	// QueriesIssued, TableScans and RowsRead count this call's own
	// executor work (see engine.Executor.WithTally): concurrent calls
	// never see each other's scans, and results served from the exec
	// cache cost nothing.
	QueriesIssued int64
	TableScans    int64
	RowsRead      int64

	// Sampled reports whether queries ran against a Bernoulli sample.
	Sampled        bool
	SampleFraction float64

	// PlanSummary is a one-line description of the execution plan
	// (units, combine modes), e.g. "3 units: 2 shared-scan (5+4 dims),
	// 1 composite (2 dims)".
	PlanSummary string

	ElapsedMillis float64
}

func (s *RunStats) addPrune(reason PruneReason, dim string, views int) {
	if s.PrunedViews == nil {
		s.PrunedViews = map[PruneReason]int{}
	}
	if s.PrunedDims == nil {
		s.PrunedDims = map[string]PruneReason{}
	}
	s.PrunedViews[reason] += views
	if dim != "" {
		s.PrunedDims[dim] = reason
	}
}

// Result is the outcome of a Recommend call.
type Result struct {
	// Query echoes the analyst's query.
	Query Query
	// Metric is the distance metric used for utilities.
	Metric string
	// Operator is the exploration operator that scored the views
	// ("deviation", "similarity", "outlier", "typical", "trend").
	Operator string
	// TargetRowCount is |D_Q| (rows matching the predicate).
	TargetRowCount int64

	// Recommendations holds the top-k views by utility, rank order.
	Recommendations []Recommendation
	// WorstViews holds the lowest-utility evaluated views (the demo's
	// "bad views" pane), worst first.
	WorstViews []Recommendation
	// AllScores lists every evaluated view's utility, descending.
	AllScores []ViewScore

	Stats RunStats
}

// viewsByDimension groups views on their dimension attribute,
// preserving first-seen dimension order; this is the unit the
// optimizer combines ("combine multiple aggregates").
func viewsByDimension(views []View) (dims []string, byDim map[string][]View) {
	byDim = map[string][]View{}
	for _, v := range views {
		if _, ok := byDim[v.Dimension]; !ok {
			dims = append(dims, v.Dimension)
		}
		byDim[v.Dimension] = append(byDim[v.Dimension], v)
	}
	return dims, byDim
}

// describePredicate is a short label for logs.
func describePredicate(p engine.Predicate) string {
	if p == nil {
		return "<all rows>"
	}
	s := p.String()
	if len(s) > 120 {
		s = s[:117] + "..."
	}
	return strings.TrimSpace(s)
}
