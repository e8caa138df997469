// Command seedb-cli recommends views from the terminal: point it at a
// CSV file (or a built-in demo dataset), give it the analyst query,
// and it prints the top-k visualizations as ASCII charts.
//
// Examples:
//
//	seedb-cli -demo superstore -q "SELECT * FROM orders WHERE category = 'Furniture'"
//	seedb-cli -csv sales=data.csv -q "SELECT * FROM sales WHERE product = 'X'" -k 5 -metric js
//	seedb-cli -demo laserwave -q "SELECT * FROM sales WHERE product = 'Laserwave'" -worst 2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"seedb"
)

func main() {
	demo := flag.String("demo", "", "demo dataset: superstore | elections | medical | synthetic | laserwave")
	csvSpec := flag.String("csv", "", "load a CSV file as name=path")
	query := flag.String("q", "", "analyst query, e.g. \"SELECT * FROM orders WHERE category = 'Furniture'\"")
	k := flag.Int("k", 5, "number of views to recommend")
	worst := flag.Int("worst", 0, "also show the N worst views")
	metric := flag.String("metric", "emd", "deviation metric: emd | euclidean | kl | js | l1 | hellinger | chebyshev")
	operator := flag.String("operator", "", "exploration operator: deviation | similarity | outlier | typical | trend (default deviation; an EXPLORE clause in -q overrides)")
	probeDim := flag.String("probe-dimension", "", "similarity probe dimension (the view other views are compared against)")
	probeMeasure := flag.String("probe-measure", "", "similarity probe measure column (default: count(*))")
	probeFunc := flag.String("probe-func", "", "similarity probe aggregate: count | sum | avg | min | max")
	probeBin := flag.Float64("probe-bin", 0, "similarity probe bin width for numeric probe dimensions (0 = categorical)")
	rows := flag.Int("rows", 20000, "demo dataset size")
	seed := flag.Int64("seed", 42, "demo dataset seed")
	width := flag.Int("width", 92, "chart width in characters")
	normalized := flag.Bool("normalized", true, "plot normalized distributions instead of raw aggregates")
	sample := flag.Float64("sample", 0, "sample fraction in (0,1); 0 = exact")
	stream := flag.Bool("stream", false, "print live phase-by-phase ranking updates while the recommendation runs")
	phases := flag.Int("phases", 0, "phased execution with confidence-interval pruning across N phases (0 = single pass; -stream defaults this to 8)")
	timeout := flag.Duration("timeout", time.Minute, "recommendation timeout")
	save := flag.String("save", "", "after loading, save the table to this snapshot file (name=path)")
	load := flag.String("load", "", "load a table from a snapshot file written by -save")
	flag.Parse()

	if *query == "" {
		fmt.Fprintln(os.Stderr, "seedb-cli: -q is required")
		flag.Usage()
		os.Exit(2)
	}

	db := seedb.Open()
	switch *demo {
	case "superstore":
		must(db.RegisterTable(seedb.SuperstoreTable("orders", *rows, *seed)))
	case "elections":
		must(db.RegisterTable(seedb.ElectionsTable("contributions", *rows, *seed)))
	case "medical":
		must(db.RegisterTable(seedb.MedicalTable("admissions", *rows, *seed)))
	case "synthetic":
		t, gt, err := seedb.SyntheticTable(seedb.DefaultSyntheticConfig("synthetic", *rows, *seed))
		must(err)
		must(db.RegisterTable(t))
		fmt.Printf("planted ground truth: subset %s; deviations %v\n\n", gt.Predicate, gt.PlantedViews)
	case "laserwave":
		must(db.RegisterTable(seedb.LaserwaveTable("sales", seedb.ScenarioA)))
	case "":
	default:
		fatal(fmt.Errorf("unknown demo dataset %q", *demo))
	}
	if *csvSpec != "" {
		name, path, ok := strings.Cut(*csvSpec, "=")
		if !ok {
			fatal(fmt.Errorf("-csv wants name=path, got %q", *csvSpec))
		}
		f, err := os.Open(path)
		must(err)
		_, err = db.LoadCSV(name, f)
		_ = f.Close()
		must(err)
	}
	if *load != "" {
		f, err := os.Open(*load)
		must(err)
		_, err = db.LoadTable(f)
		_ = f.Close()
		must(err)
	}
	if *save != "" {
		name, path, ok := strings.Cut(*save, "=")
		if !ok {
			fatal(fmt.Errorf("-save wants name=path, got %q", *save))
		}
		f, err := os.Create(path)
		must(err)
		must(db.SaveTable(name, f))
		must(f.Close())
		fmt.Printf("saved table %q to %s\n", name, path)
	}
	if len(db.Tables()) == 0 {
		fatal(fmt.Errorf("no tables loaded; use -demo, -csv, or -load"))
	}

	opts := seedb.DefaultOptions()
	opts.K = *k
	opts.Metric = *metric
	opts.IncludeWorst = *worst
	opts.Operator = *operator
	opts.ProbeDimension = *probeDim
	opts.ProbeMeasure = *probeMeasure
	opts.ProbeFunc = *probeFunc
	opts.ProbeBinWidth = *probeBin
	if *sample > 0 && *sample < 1 {
		opts.SampleFraction = *sample
		opts.SampleMinRows = 0
	}
	opts.Phases = *phases
	if *stream && opts.Phases <= 1 {
		opts.Phases = 8 // streaming needs phases to have anything to show
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	var listener seedb.ProgressListener
	if *stream {
		listener = printProgress
	}
	res, err := db.RecommendSQLProgress(ctx, *query, opts, listener)
	must(err)
	if *stream {
		fmt.Println()
	}

	fmt.Printf("query: %s\n", res.Query)
	fmt.Printf("|D_Q| = %d rows · operator %s · metric %s · %d candidate views, %d executed, %d queries, %.1f ms",
		res.TargetRowCount, res.Operator, res.Metric, res.Stats.CandidateViews, res.Stats.ExecutedViews,
		res.Stats.QueriesIssued, res.Stats.ElapsedMillis)
	if res.Stats.Sampled {
		fmt.Printf(" · sampled %.0f%%", res.Stats.SampleFraction*100)
	}
	fmt.Println()
	if res.Stats.PlanSummary != "" {
		fmt.Printf("plan: %s\n", res.Stats.PlanSummary)
	}
	for reason, n := range res.Stats.PrunedViews {
		fmt.Printf("pruned %d views: %s\n", n, reason)
	}
	fmt.Println()

	for _, rec := range res.Recommendations {
		fmt.Printf("── #%d ─────────────────────────────────────────────\n", rec.Rank)
		spec := seedb.Chart(rec.Data, *normalized)
		fmt.Print(spec.ASCII(*width))
		key, delta := rec.Data.MaxDeltaKey()
		fmt.Printf("recommended chart: %s · max change at %q (Δ %.3f)\n", rec.ChartType, key, delta)
		if len(rec.Represents) > 0 {
			fmt.Printf("also represents correlated attributes: %s\n", strings.Join(rec.Represents, ", "))
		}
		fmt.Printf("target:     %s\ncomparison: %s\n\n", rec.TargetSQL, rec.ComparisonSQL)
	}
	if len(res.WorstViews) > 0 {
		fmt.Println("── low-utility views (what SeeDB did NOT pick) ────")
		for _, rec := range res.WorstViews {
			fmt.Printf("  %-34s utility %.4f\n", rec.Data.View, rec.Data.Utility)
		}
	}
}

// printProgress renders one phase snapshot as a progress line: how far
// along the run is, the confidence radius, the survivor/prune tally,
// and the current leader. The final ranking follows in full below, so
// the stream stays one line per phase.
func printProgress(s *seedb.ProgressSnapshot) {
	done := 0
	if s.Phases > 0 {
		done = 20 * s.Phase / s.Phases
	}
	bar := strings.Repeat("█", done) + strings.Repeat("░", 20-done)
	line := fmt.Sprintf("[%s] phase %d/%d", bar, s.Phase, s.Phases)
	if s.Final {
		line += " · final"
	} else {
		line += fmt.Sprintf(" · ε=%.4f", s.Epsilon)
	}
	line += fmt.Sprintf(" · %d surviving", s.Survivors)
	if s.PrunedTotal > 0 {
		line += fmt.Sprintf(" · %d pruned early", s.PrunedTotal)
	}
	if len(s.Ranking) > 0 {
		lead := s.Ranking[0]
		line += fmt.Sprintf(" · leader %s (%.4f)", lead.View, lead.Utility)
	}
	fmt.Println(line)
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seedb-cli:", err)
	os.Exit(1)
}
