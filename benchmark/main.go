// Command benchmark is the repository's one performance harness: four
// workloads, the end-to-end and per-layer metrics named in metrics.go,
// a correctness oracle per workload, and a comparison mode.
//
//	benchmark -workload cold_scan -seed 1 -seconds 30 -trace 0   one run, result line last
//	benchmark -all -out report.json [-repeat 4]                  every workload, fresh process each
//	benchmark -compare a.json b.json                             regression table, exit 1 on regressed
//	benchmark -describe                                          metric tables as markdown
//
// See README.md and ../BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
		seed         = flag.Uint64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", defaultSeconds, "length of the measured part of the run: set-ups, warm-ups and the window")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
		scale        = flag.String("scale", "full", "full, or tiny (5k rows, fixed op counts) for the smoke test")
		out          = flag.String("out", "", "also write the result (with the environment stamp) to this file")
		outDir       = flag.String("outdir", filepath.Join("benchmark", "out"), "directory for trace files and scratch data")
		all          = flag.Bool("all", false, "run every workload, each run in a fresh process, traced and untraced")
		repeat       = flag.Int("repeat", 1, "with -all: untraced runs per workload (seeds seed, seed+1, ...)")
		compare      = flag.Bool("compare", false, "compare two -all reports: -compare a.json b.json")
		desc         = flag.Bool("describe", false, "print the metric tables as markdown")
	)
	flag.Parse()
	// At most four cores: the numbers must mean the same on a bigger box.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	switch {
	case *desc:
		fmt.Print(describe())
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two report files"))
		}
		regressed, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *all:
		rep, err := runAll(*seed, *seconds, *repeat, *scale, *outDir)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeJSON(*out, rep); err != nil {
				fatal(err)
			}
		}
		if !rep.Correct {
			os.Exit(1)
		}
	default:
		cfg, err := newConfig(*workloadName, *seed, *seconds, *trace != 0, *scale == "tiny")
		if err != nil {
			fatal(err)
		}
		cfg.outDir = *outDir
		cfg.tmpDir, err = makeTmpDir(*outDir)
		if err != nil {
			fatal(err)
		}
		res, err := execute(cfg)
		os.RemoveAll(cfg.tmpDir)
		if err != nil {
			fatal(err)
		}
		printResult(cfg, res)
		if *out != "" {
			if err := writeJSON(*out, runRecord{Env: stamp(cfg), Workload: cfg.workload, Trace: cfg.trace, Seed: cfg.seed, Result: res, Samples: res.Samples}); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 30

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func makeTmpDir(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "run-")
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printResult lists every metric by name with its unit, then anything
// that went wrong; the machine-readable result line follows it.
func printResult(cfg runConfig, res *runResult) {
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v  rows %d\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.rows)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("  samples: %d set-ups, %d query, %d companion; ops attempted %d, failed %d\n",
		len(res.Samples["setup_s"]), len(res.Samples[classQuery]), len(res.Samples[classCompanion]), res.Attempted, res.Failed)
	for _, p := range res.problems {
		fmt.Println("  FAILED:", p)
	}
}
