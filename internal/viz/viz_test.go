package viz

import (
	"strings"
	"testing"

	"seedb/internal/distance"
)

// sampleSpec mirrors what seedb.Chart builds for a scored SUM(amount)
// BY store view; viz itself is core-free, so the test constructs the
// Spec directly.
func sampleSpec(normalized bool) Spec {
	keys := []string{"Cambridge, MA", "New York, NY", "San Francisco, CA", "Seattle, WA"}
	target := []float64{180.55, 122.00, 90.13, 145.50}
	comparison := []float64{10000, 33000, 40000, 28000}
	spec := Spec{
		Title:    "SUM(amount) BY store",
		Subtitle: "utility 0.4200",
		XLabel:   "store",
		YLabel:   "SUM(amount)",
		Type:     ChooseType(keys),
		Keys:     keys,
	}
	if normalized {
		spec.YLabel = "P[SUM(amount)]"
		spec.Series = []Series{
			{Name: "query subset", Values: distance.Normalize(target)},
			{Name: "overall", Values: distance.Normalize(comparison)},
		}
	} else {
		spec.Series = []Series{
			{Name: "query subset", Values: target},
			{Name: "overall", Values: comparison},
		}
	}
	return spec
}

func TestChooseType(t *testing.T) {
	cases := []struct {
		keys []string
		want ChartType
	}{
		{[]string{"Boston", "Seattle"}, BarChart},
		{[]string{"Jan", "Feb", "Mar"}, LineChart},
		{[]string{"01-Jan", "02-Feb", "03-Mar"}, LineChart},
		{[]string{"1", "2", "3", "4"}, LineChart},
		{[]string{"2014-01-02", "2014-02-02", "2014-03-02"}, LineChart},
		{[]string{"Q1", "Q2", "Q3", "Q4"}, LineChart},
		{[]string{"1", "2"}, BarChart}, // too few points for a line
		{nil, TableChart},
		{[]string{"NULL", "a"}, BarChart},
	}
	for _, tc := range cases {
		if got := ChooseType(tc.keys); got != tc.want {
			t.Errorf("ChooseType(%v) = %v, want %v", tc.keys, got, tc.want)
		}
	}
	// > maxBarKeys nominal values → table.
	var many []string
	for i := 0; i < maxBarKeys+1; i++ {
		many = append(many, strings.Repeat("x", i+1))
	}
	if got := ChooseType(many); got != TableChart {
		t.Errorf("huge nominal domain = %v, want table", got)
	}
}

func TestChartTypeString(t *testing.T) {
	if BarChart.String() != "bar" || LineChart.String() != "line" || TableChart.String() != "table" {
		t.Error("chart type names wrong")
	}
	if ChartType(9).String() == "" {
		t.Error("unknown type should render")
	}
}

func TestKeyOrder(t *testing.T) {
	cases := []struct {
		key  string
		want float64
		ok   bool
	}{
		{"42", 42, true},
		{"-1.5", -1.5, true},
		{"Mar", 3, true},
		{"q2", 2, true},
		{"03-Mar", 3, true},
		{"", 0, false},
		{"NULL", 0, false},
		{"Boston", 0, false},
	}
	for _, tc := range cases {
		got, ok := KeyOrder(tc.key)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("KeyOrder(%q) = (%v, %v), want (%v, %v)", tc.key, got, ok, tc.want, tc.ok)
		}
	}
	// Timestamps order chronologically.
	a, okA := KeyOrder("2014-01-02")
	b, okB := KeyOrder("2014-02-02")
	if !okA || !okB || a >= b {
		t.Errorf("timestamp order: %v vs %v", a, b)
	}
}

func TestRecommendType(t *testing.T) {
	nominal := []string{"Boston", "Seattle", "Austin"}
	months := []string{"Jan", "Feb", "Mar", "Apr"}
	cases := []struct {
		name string
		in   ChartInputs
		want ChartType
	}{
		// Neutral intent agrees with ChooseType.
		{"nominal small", ChartInputs{Keys: nominal, Intent: IntentDeviation}, BarChart},
		{"ordinal run", ChartInputs{Keys: months, Intent: IntentDeviation}, LineChart},
		{"two ordinal points", ChartInputs{Keys: []string{"1", "2"}, Intent: IntentDeviation}, BarChart},
		{"empty", ChartInputs{}, TableChart},
		// Trend intent tips two ordinal points into a line.
		{"trend two points", ChartInputs{Keys: []string{"1", "2"}, Intent: IntentTrend}, LineChart},
		// Outlier intent keeps nominal domains on bars.
		{"outlier nominal", ChartInputs{Keys: nominal, Intent: IntentOutlier}, BarChart},
		// Similarity over ordinal keys stays a line.
		{"similarity ordinal", ChartInputs{Keys: months, Intent: IntentSimilarity}, LineChart},
	}
	for _, tc := range cases {
		if got := RecommendType(tc.in); got != tc.want {
			t.Errorf("%s: RecommendType = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Huge nominal domains degrade to tables regardless of intent.
	var many []string
	for i := 0; i <= maxBarKeys; i++ {
		many = append(many, strings.Repeat("x", i+1))
	}
	if got := RecommendType(ChartInputs{Keys: many, Intent: IntentOutlier}); got != TableChart {
		t.Errorf("huge nominal domain = %v, want table", got)
	}
	// Signed measures favor diverging bars on small nominal domains.
	if got := RecommendType(ChartInputs{Keys: nominal, Values: []float64{-5, 3, 2}}); got != BarChart {
		t.Errorf("signed nominal = %v, want bar", got)
	}
	// Monotone ordinal series reinforce the line choice.
	if got := RecommendType(ChartInputs{Keys: months, Values: []float64{1, 2, 3, 4}}); got != LineChart {
		t.Errorf("monotone ordinal = %v, want line", got)
	}
}

func TestIsMonotone(t *testing.T) {
	if !isMonotone([]float64{1, 2, 2, 3}) || !isMonotone([]float64{3, 2, 1}) {
		t.Error("monotone series not detected")
	}
	if isMonotone([]float64{1, 3, 2}) || isMonotone([]float64{1, 2}) {
		t.Error("non-monotone or too-short series misdetected")
	}
}

func TestASCIIRender(t *testing.T) {
	spec := sampleSpec(true)
	out := spec.ASCII(80)
	for _, frag := range []string{"SUM(amount) BY store", "Cambridge, MA", "█", "░", "query subset", "overall"} {
		if !strings.Contains(out, frag) {
			t.Errorf("ASCII output missing %q:\n%s", frag, out)
		}
	}
	// Every line must fit the width roughly (labels + bars + value).
	for _, line := range strings.Split(out, "\n") {
		if len([]rune(line)) > 100 {
			t.Errorf("line too wide: %q", line)
		}
	}
	// Degenerate spec.
	empty := Spec{Title: "t"}
	if !strings.Contains(empty.ASCII(80), "(no data)") {
		t.Error("empty spec should say no data")
	}
	// Tiny width is clamped.
	_ = spec.ASCII(1)
}

func TestASCIILineChartSparkline(t *testing.T) {
	spec := Spec{
		Title: "months",
		Type:  LineChart,
		Keys:  []string{"Jan", "Feb", "Mar"},
		Series: []Series{
			{Name: "s", Values: []float64{1, 2, 3}},
		},
	}
	out := spec.ASCII(60)
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Errorf("line chart should include sparkline:\n%s", out)
	}
}

func TestASCIINegativeValues(t *testing.T) {
	spec := Spec{
		Title: "profit",
		Type:  BarChart,
		Keys:  []string{"Central", "West"},
		Series: []Series{
			{Name: "profit", Values: []float64{-500, 300}},
		},
	}
	out := spec.ASCII(60)
	if !strings.Contains(out, "-") {
		t.Errorf("negative values must be signed:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	if sparkline(nil) != "" {
		t.Error("empty sparkline")
	}
	s := sparkline([]float64{0, 1})
	r := []rune(s)
	if len(r) != 2 || r[0] == r[1] {
		t.Errorf("sparkline = %q", s)
	}
	flat := []rune(sparkline([]float64{5, 5, 5}))
	if flat[0] != flat[1] || flat[1] != flat[2] {
		t.Error("flat series should render uniformly")
	}
}

func TestSVGRender(t *testing.T) {
	spec := sampleSpec(false)
	out := spec.SVG(480, 320)
	for _, frag := range []string{"<svg", "</svg>", "<rect", "SUM(amount) BY store", "query subset", "overall"} {
		if !strings.Contains(out, frag) {
			t.Errorf("SVG missing %q", frag)
		}
	}
	// Key labels must be escaped-safe; inject a hostile key.
	spec.Keys[0] = `<script>alert(1)</script>`
	out = spec.SVG(480, 320)
	if strings.Contains(out, "<script>") {
		t.Error("SVG must escape labels")
	}
}

func TestSVGLineChart(t *testing.T) {
	spec := Spec{
		Title:  "trend",
		Type:   LineChart,
		Keys:   []string{"Jan", "Feb", "Mar", "Apr"},
		Series: []Series{{Name: "a", Values: []float64{1, 3, 2, 5}}},
	}
	out := spec.SVG(400, 300)
	if !strings.Contains(out, "<polyline") || !strings.Contains(out, "<circle") {
		t.Error("line chart should render polyline + markers")
	}
}

func TestSVGEmptyAndClamped(t *testing.T) {
	empty := Spec{Title: "x"}
	if !strings.Contains(empty.SVG(400, 300), "(no data)") {
		t.Error("empty spec should say no data")
	}
	tiny := sampleSpec(true).SVG(1, 1)
	if !strings.Contains(tiny, "<svg") {
		t.Error("tiny sizes must clamp, not fail")
	}
}

func TestSVGNegativeBars(t *testing.T) {
	spec := Spec{
		Title:  "profit",
		Type:   BarChart,
		Keys:   []string{"a", "b"},
		Series: []Series{{Name: "p", Values: []float64{-10, 20}}},
	}
	out := spec.SVG(300, 200)
	if !strings.Contains(out, "<rect") {
		t.Error("negative bars must render")
	}
}

func TestFmtTick(t *testing.T) {
	cases := map[float64]string{
		0:         "0",
		2_500_000: "2.5M",
		1500:      "1.5k",
		0.25:      "0.25",
	}
	for v, want := range cases {
		if got := fmtTick(v); got != want {
			t.Errorf("fmtTick(%v) = %q, want %q", v, got, want)
		}
	}
	if !strings.Contains(fmtTick(0.0001), "e") {
		t.Error("tiny ticks should use scientific notation")
	}
}

func TestTruncate(t *testing.T) {
	if truncate("hello", 10) != "hello" {
		t.Error("short strings unchanged")
	}
	if got := truncate("hello world", 6); len(got) > 8 { // utf8 ellipsis
		t.Errorf("truncate = %q", got)
	}
	if truncate("ab", 1) != "a" {
		t.Error("n=1 edge")
	}
}
