// Package viz turns SeeDB view data into visualizations. It implements
// the frontend rule set the paper describes in §3.2: "the frontend
// creates a visualization based on parameters such as the data type
// (e.g. ordinal, numeric), number of distinct values, and semantics
// (e.g. geography vs. time series)". Rendering targets are ASCII (for
// the CLI) and SVG (for the web frontend); both are dependency-free.
//
// SVG is on the path of every /api/recommend response, one chart per
// view, so it renders by appending to one byte slice with strconv and
// an exact integer kernel for its one-decimal coordinates instead of
// fmt. Its bytes are fmt's: the fmt-based renderer it replaced is kept
// in the tests as the oracle (FuzzSVGMatchesFmt), because the SVG is
// part of the response bytes the goldens and caches pin.
//
// The package deliberately depends only on the standard library — not
// on internal/core — so the recommendation pipeline itself can consult
// it: core annotates every Recommendation with a chart type chosen by
// RecommendType, which scores bar/line/table candidates from dimension
// cardinality, measure shape, and the exploration operator's intent
// (the DataVizard-style rule set, see PAPERS.md).
package viz

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ChartType is the visualization family chosen for a view.
type ChartType int

const (
	// BarChart suits nominal dimensions with modest cardinality.
	BarChart ChartType = iota
	// LineChart suits ordinal/temporal dimensions (months, years,
	// numeric buckets) where the x-order is meaningful.
	LineChart
	// TableChart is the fallback for very high-cardinality dimensions
	// where marks would be unreadable.
	TableChart
)

// String names the chart type.
func (c ChartType) String() string {
	switch c {
	case BarChart:
		return "bar"
	case LineChart:
		return "line"
	case TableChart:
		return "table"
	default:
		return fmt.Sprintf("ChartType(%d)", int(c))
	}
}

// Series is one named sequence of y-values aligned with the Spec keys.
type Series struct {
	Name   string
	Values []float64
}

// Spec is a renderable chart: keys on x, one or more series on y.
type Spec struct {
	Title    string
	Subtitle string
	XLabel   string
	YLabel   string
	Type     ChartType
	Keys     []string
	Series   []Series
}

// maxBarKeys is the cardinality beyond which bar charts degrade to
// tables.
const maxBarKeys = 40

// monthOrder recognizes month-like ordinal labels and assigns their
// intrinsic position.
var monthOrder = map[string]float64{
	"jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5,
	"jun": 6, "jul": 7, "aug": 8, "sep": 9, "oct": 10,
	"nov": 11, "dec": 12,
	"january": 1, "february": 2, "march": 3, "april": 4,
	"june": 6, "july": 7, "august": 8, "september": 9,
	"october": 10, "november": 11, "december": 12,
	"q1": 1, "q2": 2, "q3": 3, "q4": 4,
}

// ChooseType picks a chart family from the key labels, mirroring the
// paper's "data type, number of distinct values, and semantics" rules:
// numeric or temporal keys → line; small nominal domains → bar; large
// domains → table.
func ChooseType(keys []string) ChartType {
	if len(keys) == 0 {
		return TableChart
	}
	ordinal := true
	for _, k := range keys {
		if !looksOrdinal(k) {
			ordinal = false
			break
		}
	}
	if ordinal && len(keys) >= 3 {
		return LineChart
	}
	if len(keys) <= maxBarKeys {
		return BarChart
	}
	return TableChart
}

// KeyOrder returns a sortable position for a group label when it
// carries an intrinsic order — a number, a timestamp, a month/quarter
// name, or a "01-Jan"-style sortable prefix — and reports whether one
// was found. The trend exploration operator uses it to order a view's
// groups before measuring monotonicity; chart-type scoring uses it to
// detect ordinal domains.
func KeyOrder(key string) (float64, bool) {
	k := strings.TrimSpace(key)
	if k == "" || k == "NULL" {
		return 0, false
	}
	if f, err := strconv.ParseFloat(k, 64); err == nil {
		return f, true
	}
	for _, layout := range []string{time.RFC3339, "2006-01-02", "2006-01", "2006"} {
		if ts, err := time.Parse(layout, k); err == nil {
			return float64(ts.Unix()), true
		}
	}
	lower := strings.ToLower(k)
	if pos, ok := monthOrder[lower]; ok {
		return pos, true
	}
	// "01-Jan" style: numeric prefix + month suffix.
	if i := strings.IndexAny(k, "-_/ "); i > 0 {
		if n, err := strconv.Atoi(k[:i]); err == nil {
			return float64(n), true
		}
	}
	return 0, false
}

// looksOrdinal reports whether a group label carries an intrinsic
// order (see KeyOrder).
func looksOrdinal(key string) bool {
	_, ok := KeyOrder(key)
	return ok
}

// Intent classifies what an exploration operator's ranking expresses,
// so chart-type scoring can weigh presentation accordingly: a trend
// result wants its x-order visible (line), a deviation or outlier
// result wants per-group magnitudes comparable side by side (bar).
type Intent int

const (
	// IntentDeviation compares a subset's distribution against a
	// reference — the classic SeeDB operator.
	IntentDeviation Intent = iota
	// IntentSimilarity ranks views by shape-match against a probe view.
	IntentSimilarity
	// IntentOutlier ranks views by distance from their siblings.
	IntentOutlier
	// IntentTypical ranks views by closeness to their siblings.
	IntentTypical
	// IntentTrend ranks views by monotonicity over an ordered dimension.
	IntentTrend
)

// ChartInputs describes one recommendation for chart-type scoring.
type ChartInputs struct {
	// Keys are the view's group labels (x-axis candidates).
	Keys []string
	// Values is the primary series (the target side's raw aggregates);
	// its shape — sign, monotonicity — feeds the scoring.
	Values []float64
	// Intent is the exploration operator's presentation intent.
	Intent Intent
}

// RecommendType scores the three chart families against the inputs and
// returns the best, DataVizard-style: each family accumulates evidence
// from dimension cardinality (bars degrade past maxBarKeys, tables
// scale), key semantics (ordinal domains make x-order meaningful),
// measure shape (signed values suit diverging bars; monotone ordinal
// series suit lines), and operator intent (trend wants lines,
// deviation/outlier want comparable bars). With a neutral intent and
// unremarkable data it agrees with ChooseType, so chart annotations
// match what the renderer would have picked anyway.
func RecommendType(in ChartInputs) ChartType {
	n := len(in.Keys)
	if n == 0 {
		return TableChart
	}
	ordinal := true
	for _, k := range in.Keys {
		if !looksOrdinal(k) {
			ordinal = false
			break
		}
	}
	var bar, line, table float64
	table = 0.5
	if n <= maxBarKeys {
		bar = 1.0
	} else {
		table = 1.5
	}
	switch {
	case ordinal && n >= 3:
		line = 2.0
	case ordinal:
		line = 0.8 // two ordinal points: a slope exists but barely
	}
	// Measure shape: signed values read well as diverging bars;
	// monotone ordinal series are line-shaped by nature.
	for _, v := range in.Values {
		if v < 0 {
			bar += 0.3
			break
		}
	}
	if ordinal && isMonotone(in.Values) {
		line += 0.4
	}
	// Operator intent.
	switch in.Intent {
	case IntentTrend:
		line += 0.8
	case IntentSimilarity:
		line += 0.3
	case IntentDeviation, IntentOutlier, IntentTypical:
		bar += 0.2
	}
	// Deterministic argmax; earlier candidates win exact ties.
	best, bestScore := BarChart, bar
	if line > bestScore {
		best, bestScore = LineChart, line
	}
	if table > bestScore {
		best = TableChart
	}
	return best
}

// isMonotone reports whether the series is non-strictly increasing or
// decreasing end to end (length ≥ 3 to mean anything).
func isMonotone(vs []float64) bool {
	if len(vs) < 3 {
		return false
	}
	inc, dec := true, true
	for i := 1; i < len(vs); i++ {
		if vs[i] < vs[i-1] {
			inc = false
		}
		if vs[i] > vs[i-1] {
			dec = false
		}
	}
	return inc || dec
}

// maxValue returns the largest value across all series (0 floor).
func (s Spec) maxValue() float64 {
	max := 0.0
	for _, ser := range s.Series {
		for _, v := range ser.Values {
			if v > max {
				max = v
			}
		}
	}
	return max
}

// minValue returns the smallest value across all series (0 ceiling).
func (s Spec) minValue() float64 {
	min := 0.0
	for _, ser := range s.Series {
		for _, v := range ser.Values {
			if v < min {
				min = v
			}
		}
	}
	return min
}
