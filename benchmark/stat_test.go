package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// Values from Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 23, 38},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if !math.IsNaN(spread([]float64{1, 2, 3})) {
		t.Error("spread of three values must be NaN")
	}
}

func TestQuietEstimators(t *testing.T) {
	// 40 samples: stretches are 5 long; a burst doubles all but samples 22-27.
	v := make([]float64, 40)
	for i := range v {
		v[i] = 20 + float64(i%3)
		if i >= 22 && i < 28 {
			v[i] = 10 + float64(i%3)
		}
	}
	if got := quietStretch(v); got != 11 {
		t.Errorf("quietStretch = %v, want 11 (the median of the quiet stretch)", got)
	}
	if got := quietStretch([]float64{3, 1, 2}); got != 2 {
		t.Errorf("quietStretch of a short window = %v, want its median 2", got)
	}
	if got := quietStretch(nil); got != 0 {
		t.Errorf("quietStretch(nil) = %v", got)
	}
	if got := quietSample([]float64{5, 1, 3, 2}); got != 2 {
		t.Errorf("quietSample = %v, want the second smallest", got)
	}
	if got := quietSample([]float64{7}); got != 7 {
		t.Errorf("quietSample of one = %v", got)
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []*span{
		{ID: 1, Name: "query", Layer: layerHarness, Trace: "w/1", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "core.recommend", Layer: layerCore, StartNS: 10, EndNS: 90},
		{ID: 3, Parent: 2, Name: "engine.a", Layer: layerEngine, StartNS: 20, EndNS: 50},
		{ID: 4, Parent: 2, Name: "engine.b", Layer: layerEngine, StartNS: 40, EndNS: 70}, // overlaps a
	}
	b := breakdowns(spans)
	if len(b) != 1 || b[0].wall != 100 {
		t.Fatalf("breakdowns = %+v", b)
	}
	if got := b[0].self; got[layerHarness] != 20 || got[layerCore] != 30 || got[layerEngine] != 60 {
		t.Fatalf("self times = %v, want harness 20, core 30 (80 minus the 50 its children cover), engine 60", got)
	}
}

func writeReport(t *testing.T, name string, query []float64, failed int) string {
	t.Helper()
	rep := report{Correct: failed == 0}
	for _, w := range workloadNames() {
		for i, q := range query {
			m := map[string]metricValue{}
			for _, d := range endToEnd {
				m[d.Name] = metricValue{Value: 1, Unit: d.Unit}
			}
			m["query_p50_ms"] = metricValue{Value: q, Unit: "ms"}
			rep.Runs = append(rep.Runs, runRecord{Workload: w, Seed: uint64(i), Result: &runResult{Correct: true, Attempted: 100, Failed: failed, Metrics: m}})
		}
	}
	path := filepath.Join(t.TempDir(), name)
	if err := writeJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	base := writeReport(t, "a.json", []float64{100, 101, 99, 100}, 0)
	for _, c := range []struct {
		name      string
		query     []float64
		failed    int
		regressed bool
		verdict   string
	}{
		{"same", []float64{100, 102, 98, 101}, 0, false, "ok"},
		{"slower", []float64{130, 131, 129, 130}, 0, true, "regressed"},
		{"noisy", []float64{80, 140, 100, 160}, 0, false, "unresolved"},
		{"failing", []float64{100, 101, 99, 100}, 1, true, "failed share increased"},
	} {
		var out bytes.Buffer
		regressed, err := compareReports(&out, base, writeReport(t, "b.json", c.query, c.failed))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.regressed || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: regressed=%v, want %v with %q in:\n%s", c.name, regressed, c.regressed, c.verdict, out.String())
		}
	}
}
