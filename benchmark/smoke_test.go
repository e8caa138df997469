package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// BENCHMARK.json and metrics.go must name the same workloads and metrics.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	names := workloadNames()
	if len(bf.Workloads) != len(names) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(names))
	}
	for i, w := range bf.Workloads {
		if w.Name != names[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), code has %q", i, w.Name, len(w.Why), names[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, code %d+%d", len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, code has %s %s %s %g", i, m, d.Name, d.Unit, d.Better, d.Bound)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, code has %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func tinyRun(t *testing.T, workload string, trace bool) *runResult {
	t.Helper()
	cfg, err := newConfig(workload, 1, 1, trace, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg.outDir, cfg.tmpDir = t.TempDir(), t.TempDir()
	res, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: attempted %d, failed %d: %v", workload, trace, res.Attempted, res.Failed, res.problems)
	}
	return res
}

// Every workload at -scale tiny: every metric present and finite, nothing
// failed, end-to-end metrics non-zero, exact counters equal across two
// runs of the same seed, one trace file per workload.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			res := tinyRun(t, name, false)
			for _, d := range endToEnd {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %+v (present %v), want a positive finite value in %s", d.Name, v, ok, d.Unit)
				}
			}
			a, b := tinyRun(t, name, true), tinyRun(t, name, true)
			for _, d := range perLayer {
				va, ok := a.Metrics[d.Name]
				if !ok || va.Unit != d.Unit || math.IsNaN(va.Value) || math.IsInf(va.Value, 0) {
					t.Errorf("%s = %+v (present %v), want a finite value in %s", d.Name, va, ok, d.Unit)
				}
				if vb := b.Metrics[d.Name]; d.Exact && va.Value != vb.Value {
					t.Errorf("exact counter %s differs between two runs of one seed: %v, %v", d.Name, va.Value, vb.Value)
				}
			}
			if len(a.Metrics) != len(perLayer) || len(res.Metrics) != len(endToEnd) {
				t.Errorf("result carries %d and %d metrics, want %d and %d", len(res.Metrics), len(a.Metrics), len(endToEnd), len(perLayer))
			}
		})
	}
}
