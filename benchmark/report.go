package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envStamp says where and how a result was measured; results from
// different stamps are not comparable.
type envStamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	// Frozen sizes of the run (see newConfig).
	Rows      int `json:"rows,omitempty"`
	SetupReps int `json:"setup_reps,omitempty"`
	WarmOps   int `json:"warm_ops,omitempty"`
	VerifyOps int `json:"verify_ops,omitempty"`
}

func stamp(cfg runConfig) envStamp {
	e := envStamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Seconds:    cfg.seconds,
		Scale:      "full",
		Rows:       cfg.rows, SetupReps: cfg.setupReps, WarmOps: cfg.warmOps, VerifyOps: cfg.verifyOps,
	}
	if cfg.tiny {
		e.Scale = "tiny"
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// runRecord is one process's result as stored in a report.
type runRecord struct {
	Env      envStamp   `json:"env"`
	Workload string     `json:"workload"`
	Trace    bool       `json:"trace"`
	Seed     uint64     `json:"seed"`
	Result   *runResult `json:"result"`
	// Samples are the raw window latencies behind the medians (single
	// runs written with -out only).
	Samples map[string][]float64 `json:"samples,omitempty"`
}

// report is what -all writes and -compare reads.
type report struct {
	Env     envStamp    `json:"env"`
	Correct bool        `json:"correct"`
	Runs    []runRecord `json:"runs"`
}

// runAll runs every workload in fresh child processes of this binary:
// repeat untraced runs (seed, seed+1, ...) and one traced run each.
func runAll(seed uint64, seconds float64, repeat int, scale, outDir string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rep := &report{Correct: true}
	for _, name := range workloadNames() {
		for i := 0; i <= repeat; i++ {
			traced, s, flag := false, seed+uint64(i), "0"
			if i == repeat {
				traced, s, flag = true, seed, "1"
			}
			args := []string{"-workload", name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds),
				"-trace", flag, "-scale", scale, "-outdir", outDir}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			buf, err := cmd.Output()
			os.Stdout.Write(buf)
			lines := strings.Split(strings.TrimSpace(string(buf)), "\n")
			var res runResult
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
				return nil, fmt.Errorf("%s (trace %v): no result line: %v (exit: %v)", name, traced, jerr, err)
			}
			cfg, _ := newConfig(name, s, seconds, traced, scale == "tiny")
			rec := runRecord{Env: stamp(cfg), Workload: name, Trace: traced, Seed: s, Result: &res}
			rep.Env = rec.Env
			rep.Env.Rows, rep.Env.SetupReps = 0, 0
			rep.Runs = append(rep.Runs, rec)
			rep.Correct = rep.Correct && res.Correct
		}
	}
	return rep, nil
}

func loadReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// values collects one end-to-end metric's untraced values per workload.
func (r *report) values(workload, metric string) []float64 {
	var v []float64
	for _, run := range r.Runs {
		if run.Workload == workload && !run.Trace && run.Result != nil {
			if mv, ok := run.Result.Metrics[metric]; ok {
				v = append(v, mv.Value)
			}
		}
	}
	return v
}

func (r *report) failed() (attempted, failed int) {
	for _, run := range r.Runs {
		if run.Result != nil {
			attempted += run.Result.Attempted
			failed += run.Result.Failed
		}
	}
	return
}

// compareReports prints every end-to-end metric of every workload in a
// row of its own — both medians, the ratio with its base, the bound and a
// verdict — and reports whether anything regressed. A difference counts
// only when it exceeds the bound; where the runs of either side spread
// wider than the bound the row is unresolved, not ok.
func compareReports(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s  commit %s  %s  %d cpu  %s\n", pathA, a.Env.Commit, a.Env.GoVersion, a.Env.NumCPU, a.Env.CPUModel)
	fmt.Fprintf(w, "b: %s  commit %s  %s  %d cpu  %s\n", pathB, b.Env.Commit, b.Env.GoVersion, b.Env.NumCPU, b.Env.CPUModel)
	fmt.Fprintf(w, "%-16s %-18s %12s %12s %22s %7s %9s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "spread", "verdict")
	for _, name := range workloadNames() {
		for _, d := range endToEnd {
			va, vb := a.values(name, d.Name), b.values(name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-18s %12s %12s %22s %7.2f %9s  %s\n", name, d.Name, "-", "-", "-", d.Bound, "-", "missing")
				regressed = true
				continue
			}
			ma, mb := median(va), median(vb)
			ratio := mb / ma
			sp := math.Max(orZero(spread(va)), orZero(spread(vb))) // unknown below four runs
			worse := ratio - 1
			if d.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "ok"
			switch {
			case sp > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				regressed = true
			}
			spreadText := fmt.Sprintf("%.3f", sp)
			if len(va) < 4 || len(vb) < 4 {
				spreadText = "n<4"
			}
			fmt.Fprintf(w, "%-16s %-18s %12.4f %12.4f %9.3f of %-9.4f %7.2f %9s  %s\n",
				name, d.Name, ma, mb, ratio, ma, d.Bound, spreadText, verdict)
		}
	}
	aa, af := a.failed()
	ba, bf := b.failed()
	fmt.Fprintf(w, "failed ops: a %d of %d, b %d of %d\n", af, aa, bf, ba)
	if ba > 0 && aa > 0 && float64(bf)/float64(ba) > float64(af)/float64(aa) {
		fmt.Fprintln(w, "failed share increased: regressed")
		regressed = true
	}
	return regressed, nil
}

func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
