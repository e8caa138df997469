package seedb

import (
	"context"
	"fmt"
	"testing"

	"seedb/internal/datagen"
	"seedb/internal/engine"
	"seedb/internal/experiments"
)

// Experiment benchmarks: one per paper table/figure/claim (the E1–E14
// index lives in internal/experiments). Each wraps the corresponding
// experiment runner at benchmark-friendly scale; `go test -bench .`
// therefore regenerates the full evaluation. cmd/seedb-bench prints
// the same reports with their tables.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.QuickConfig()
	cfg.Rows = 20_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1Table1(b *testing.B)                  { benchExperiment(b, "E1") }
func BenchmarkE2Scenarios(b *testing.B)               { benchExperiment(b, "E2") }
func BenchmarkE3ViewSpace(b *testing.B)               { benchExperiment(b, "E3") }
func BenchmarkE4BasicVsOptimized(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5CombineTargetComparison(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6CombineAggregates(b *testing.B)       { benchExperiment(b, "E6") }
func BenchmarkE7CombineGroupBys(b *testing.B)         { benchExperiment(b, "E7") }
func BenchmarkE8Sampling(b *testing.B)                { benchExperiment(b, "E8") }
func BenchmarkE9Parallel(b *testing.B)                { benchExperiment(b, "E9") }
func BenchmarkE10Pruning(b *testing.B)                { benchExperiment(b, "E10") }
func BenchmarkE11Metrics(b *testing.B)                { benchExperiment(b, "E11") }
func BenchmarkE12PhasedCI(b *testing.B)               { benchExperiment(b, "E12") }
func BenchmarkE13Knobs(b *testing.B)                  { benchExperiment(b, "E13") }
func BenchmarkE14GroundTruth(b *testing.B)            { benchExperiment(b, "E14") }

// ---------------------------------------------------------------------
// Micro-benchmarks of the pipeline building blocks, for profiling.

func benchDB(b *testing.B, rows int) (*DB, Predicate) {
	b.Helper()
	db := Open()
	tb, gt, err := SyntheticTable(DefaultSyntheticConfig("syn", rows, 42))
	if err != nil {
		b.Fatal(err)
	}
	if err := db.RegisterTable(tb); err != nil {
		b.Fatal(err)
	}
	return db, gt.Predicate
}

// BenchmarkRecommendOptimized measures the full optimized pipeline.
func BenchmarkRecommendOptimized(b *testing.B) {
	for _, rows := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			db, pred := benchDB(b, rows)
			opts := DefaultOptions()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Recommend(ctx, "syn", pred, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecommendBasic measures the unoptimized baseline.
func BenchmarkRecommendBasic(b *testing.B) {
	db, pred := benchDB(b, 10_000)
	opts := BasicOptions()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Recommend(ctx, "syn", pred, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineGroupBy measures the core scan+aggregate primitive.
func BenchmarkEngineGroupBy(b *testing.B) {
	tb := datagen.Superstore("orders", 100_000, 1)
	cat := engine.NewCatalog()
	if err := cat.Register(tb); err != nil {
		b.Fatal(err)
	}
	ex := engine.NewExecutor(cat)
	q := &engine.Query{
		Table:   "orders",
		GroupBy: []string{"state"},
		Aggs: []engine.AggSpec{
			{Func: engine.AggSum, Column: "profit"},
			{Func: engine.AggSum, Column: "profit", Filter: engine.Eq("category", engine.String("Furniture"))},
		},
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.SetBytes(int64(tb.NumRows()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineGroupingSets measures the shared-scan primitive.
func BenchmarkEngineGroupingSets(b *testing.B) {
	tb := datagen.Superstore("orders", 100_000, 1)
	cat := engine.NewCatalog()
	if err := cat.Register(tb); err != nil {
		b.Fatal(err)
	}
	ex := engine.NewExecutor(cat)
	q := &engine.Query{
		Table: "orders",
		Aggs:  []engine.AggSpec{{Func: engine.AggSum, Column: "profit"}},
	}
	sets := [][]string{{"state"}, {"region"}, {"category"}, {"ship_mode"}, {"segment"}}
	ctx := context.Background()
	b.ReportAllocs()
	b.SetBytes(int64(tb.NumRows()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.RunGroupingSets(ctx, q, sets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhasedExecution measures the CI-pruning extension.
func BenchmarkPhasedExecution(b *testing.B) {
	db, pred := benchDB(b, 50_000)
	opts := DefaultOptions()
	opts.AggFuncs = []AggFunc{AggSum, AggCount}
	opts.Phases = 8
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Recommend(ctx, "syn", pred, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricScoring isolates utility computation per metric.
func BenchmarkMetricScoring(b *testing.B) {
	db, pred := benchDB(b, 20_000)
	for _, metric := range []string{"emd", "euclidean", "kl", "js"} {
		b.Run(metric, func(b *testing.B) {
			opts := DefaultOptions()
			opts.Metric = metric
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Recommend(ctx, "syn", pred, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
