// Command seedb-bench regenerates the paper's tables, figures, and
// quantitative claims as experiments E1–E14 (the index lives in
// internal/experiments). Performance is measured elsewhere: see
// benchmark/README.md.
//
// Usage:
//
//	seedb-bench                 # run everything at the recorded scale
//	seedb-bench -exp E5,E8      # run selected experiments
//	seedb-bench -rows 50000     # change the base table size
//	seedb-bench -quick          # fast smoke-test sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"seedb/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment IDs (E1..E14) or 'all'")
	rows := flag.Int("rows", 0, "base table size (0 = experiment default)")
	seed := flag.Int64("seed", 42, "dataset seed")
	quick := flag.Bool("quick", false, "reduced sweeps for a fast smoke test")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, r := range experiments.Registry {
			fmt.Printf("%-4s %s\n", r.ID, r.Title)
		}
		return
	}

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *rows > 0 {
		cfg.Rows = *rows
	}
	cfg.Seed = *seed

	var ids []string
	if strings.EqualFold(*exp, "all") {
		for _, r := range experiments.Registry {
			ids = append(ids, r.ID)
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	start := time.Now()
	failed := false
	for _, id := range ids {
		rep, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "seedb-bench: %s: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Println(rep.String())
	}
	fmt.Printf("total: %s (rows=%d quick=%v seed=%d)\n", time.Since(start).Round(time.Millisecond), cfg.Rows, cfg.Quick, cfg.Seed)
	if failed {
		os.Exit(1)
	}
}
