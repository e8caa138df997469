package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// defaultPlanTable mirrors the benchmark's cold_scan table
// (datagen.DefaultSynthetic, which this package cannot import): ten
// 10-value string dimensions and five N(100, 25) float measures.
func defaultPlanTable(tb testing.TB, rows int) *Table {
	tb.Helper()
	var schema Schema
	for i := 0; i < 10; i++ {
		schema = append(schema, ColumnDef{Name: fmt.Sprintf("d%d", i), Type: TypeString})
	}
	for i := 0; i < 5; i++ {
		schema = append(schema, ColumnDef{Name: fmt.Sprintf("m%d", i), Type: TypeFloat})
	}
	t := MustNewTable("events", schema)
	rng := rand.New(rand.NewSource(1))
	l := t.StartLoad()
	for r := 0; r < rows; r++ {
		for i := 0; i < 10; i++ {
			l.Column(i).(*StringColumn).AppendString(fmt.Sprintf("v%d", rng.Intn(10)))
		}
		for i := 0; i < 5; i++ {
			l.Column(10 + i).(*FloatColumn).AppendFloat(100 + 25*rng.NormFloat64())
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	return t
}

// defaultPlanSets is the shared scan core plans for that table under
// DefaultOptions with a predicate on d0: fourteen single-attribute
// grouping sets (the nine other string dimensions, the five measures
// binned) × thirty aggregates (SUM, COUNT, AVG of every measure for the
// comparison view, and again filtered by the predicate for the target).
func defaultPlanSets(filter Predicate) []GroupingSet {
	var aggs []AggSpec
	for m := 0; m < 5; m++ {
		for _, f := range []AggFunc{AggSum, AggCount, AggAvg} {
			col := fmt.Sprintf("m%d", m)
			aggs = append(aggs,
				AggSpec{Func: f, Column: col, Alias: fmt.Sprintf("c_%s_%s", f, col)},
				AggSpec{Func: f, Column: col, Filter: filter, Alias: fmt.Sprintf("t_%s_%s", f, col)})
		}
	}
	var sets []GroupingSet
	for d := 1; d < 10; d++ {
		sets = append(sets, GroupingSet{By: []string{fmt.Sprintf("d%d", d)}, Aggs: aggs})
	}
	for m := 0; m < 5; m++ {
		col := fmt.Sprintf("m%d", m)
		sets = append(sets, GroupingSet{By: []string{col}, Aggs: aggs, BinWidths: map[string]float64{col: 10}})
	}
	return sets
}

// countedSet is the zero-key set core adds to a Recommend's first scan
// to count the target rows: COUNT(*) FILTER (predicate).
func countedSet(filter Predicate) GroupingSet {
	return GroupingSet{Aggs: []AggSpec{{Func: AggCount, Filter: filter, Alias: "target_rows"}}}
}

// BenchmarkSharedScanDefaultPlan times the shared scan behind a cold
// Recommend at three filter selectivities — the kernel-work inner loop,
// seconds per run — as the default plan alone (plain), with the target
// count riding it (counted: the scan a Recommend issues), and that scan
// under a partial store whose predicate-free runs are warm, a predicate
// it has never seen every op (stored: what exploration issues). The
// end-to-end claim is judged by benchmark/.
func BenchmarkSharedScanDefaultPlan(b *testing.B) {
	const rows = 200_000
	cat := NewCatalog()
	if err := cat.Register(defaultPlanTable(b, rows)); err != nil {
		b.Fatal(err)
	}
	ex := NewExecutor(cat)
	stored := NewExecutor(cat)
	// Each selectivity's predicate, and (stored) a never-seen one of the
	// same selectivity per op: d0 IN (the same values, a value no row
	// holds), or NOT IN (that value).
	filters := []struct {
		name   string
		pred   Predicate
		in     []Value
		negate bool
	}{
		{"sel10", Compare("d0", OpEq, String("v3")), []Value{String("v3")}, false},
		{"sel50", In("d0", String("v0"), String("v2"), String("v4"), String("v6"), String("v8")),
			[]Value{String("v0"), String("v2"), String("v4"), String("v6"), String("v8")}, false},
		{"sel100", IsNotNull("d0"), nil, true},
	}
	for _, f := range filters {
		fresh := func(i int) Predicate {
			p := In("d0", append(slices.Clip(f.in), String(fmt.Sprintf("nope%d", i)))...)
			p.Negate = f.negate
			return p
		}
		for _, variant := range []string{"plain", "counted", "stored"} {
			b.Run(f.name+"/"+variant, func(b *testing.B) {
				plan := func(pred Predicate) []GroupingSet {
					sets := defaultPlanSets(pred)
					if variant != "plain" {
						sets = append(sets, countedSet(pred))
					}
					return sets
				}
				sets := plan(f.pred)
				q := &Query{Table: "events", Parallelism: 1}
				run := ex
				if variant == "stored" {
					run = stored
					stored.SetPartialStore(NewPartialStore(0))
					if _, err := stored.RunSharedScan(context.Background(), q, sets); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if variant == "stored" {
						b.StopTimer()
						sets = plan(fresh(i))
						b.StartTimer()
					}
					if _, err := run.RunSharedScan(context.Background(), q, sets); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(rows)*float64(b.N)/float64(b.Elapsed().Milliseconds()+1), "rows/ms")
			})
		}
	}
}
