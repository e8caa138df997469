package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// buildSalesCatalog makes a deterministic synthetic "sales" table with
// ngroups distinct stores and products, suitable for group-by checks.
func buildSalesCatalog(t testing.TB, rows, ngroups int) (*Catalog, *Executor) {
	t.Helper()
	cat := NewCatalog()
	tb := MustNewTable("sales", Schema{
		{Name: "product", Type: TypeString},
		{Name: "store", Type: TypeString},
		{Name: "region", Type: TypeString},
		{Name: "amount", Type: TypeFloat},
		{Name: "qty", Type: TypeInt},
	})
	rng := rand.New(rand.NewSource(42))
	l := tb.StartLoad()
	prod := l.Column(0).(*StringColumn)
	store := l.Column(1).(*StringColumn)
	region := l.Column(2).(*StringColumn)
	amount := l.Column(3).(*FloatColumn)
	qty := l.Column(4).(*IntColumn)
	for i := 0; i < rows; i++ {
		prod.AppendString(fmt.Sprintf("p%d", rng.Intn(ngroups)))
		store.AppendString(fmt.Sprintf("s%d", rng.Intn(ngroups)))
		region.AppendString(fmt.Sprintf("r%d", rng.Intn(4)))
		if rng.Intn(50) == 0 {
			amount.AppendNull()
		} else {
			amount.AppendFloat(rng.Float64() * 100)
		}
		qty.AppendInt(int64(rng.Intn(10)))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	return cat, NewExecutor(cat)
}

// naiveGroupBy computes the same aggregation with maps and boxed
// values — the reference the executor is checked against.
func naiveGroupBy(t testing.TB, tb *Table, where Predicate, groupBy []string, aggs []AggSpec) map[string][]float64 {
	t.Helper()
	var bound BoundPredicate
	if where != nil {
		b, err := where.Bind(tb)
		if err != nil {
			t.Fatal(err)
		}
		bound = b
	}
	filters := make([]BoundPredicate, len(aggs))
	for i, a := range aggs {
		if a.Filter != nil {
			b, err := a.Filter.Bind(tb)
			if err != nil {
				t.Fatal(err)
			}
			filters[i] = b
		}
	}
	type state struct {
		vals [][]float64 // per agg, raw values
		n    []int64     // per agg, count (for COUNT semantics)
	}
	groups := map[string]*state{}
	keyCols := make([]Column, len(groupBy))
	for i, g := range groupBy {
		c, err := tb.Column(g)
		if err != nil {
			t.Fatal(err)
		}
		keyCols[i] = c
	}
	for row := 0; row < tb.NumRows(); row++ {
		if bound != nil && !bound(row) {
			continue
		}
		key := ""
		for _, c := range keyCols {
			key += "\x01" + c.Value(row).Format()
		}
		st, ok := groups[key]
		if !ok {
			st = &state{vals: make([][]float64, len(aggs)), n: make([]int64, len(aggs))}
			groups[key] = st
		}
		for i, a := range aggs {
			if filters[i] != nil && !filters[i](row) {
				continue
			}
			if a.Column == "" {
				st.n[i]++
				continue
			}
			c, _ := tb.Column(a.Column)
			if c.IsNull(row) {
				continue
			}
			v, _ := c.Value(row).AsFloat()
			st.n[i]++
			st.vals[i] = append(st.vals[i], v)
		}
	}
	out := map[string][]float64{}
	for key, st := range groups {
		res := make([]float64, len(aggs))
		for i, a := range aggs {
			vs := st.vals[i]
			switch a.Func {
			case AggCount:
				res[i] = float64(st.n[i])
			case AggSum:
				if len(vs) == 0 {
					res[i] = math.NaN()
					break
				}
				s := 0.0
				for _, v := range vs {
					s += v
				}
				res[i] = s
			case AggAvg:
				if len(vs) == 0 {
					res[i] = math.NaN()
					break
				}
				s := 0.0
				for _, v := range vs {
					s += v
				}
				res[i] = s / float64(len(vs))
			case AggMin:
				if len(vs) == 0 {
					res[i] = math.NaN()
					break
				}
				m := vs[0]
				for _, v := range vs {
					if v < m {
						m = v
					}
				}
				res[i] = m
			case AggMax:
				if len(vs) == 0 {
					res[i] = math.NaN()
					break
				}
				m := vs[0]
				for _, v := range vs {
					if v > m {
						m = v
					}
				}
				res[i] = m
			case AggVariance, AggStddev:
				if len(vs) == 0 {
					res[i] = math.NaN()
					break
				}
				s, ss := 0.0, 0.0
				for _, v := range vs {
					s += v
					ss += v * v
				}
				n := float64(len(vs))
				mean := s / n
				va := ss/n - mean*mean
				if va < 0 {
					va = 0
				}
				if a.Func == AggStddev {
					va = math.Sqrt(va)
				}
				res[i] = va
			}
		}
		out[key] = res
	}
	return out
}

// resultToMap keys a Result the same way naiveGroupBy does.
func resultToMap(res *Result, nkeys int) map[string][]float64 {
	out := map[string][]float64{}
	for _, row := range res.Rows {
		key := ""
		for i := 0; i < nkeys; i++ {
			key += "\x01" + row[i].Format()
		}
		vals := make([]float64, len(row)-nkeys)
		for i, v := range row[nkeys:] {
			if v.Null {
				vals[i] = math.NaN()
			} else {
				f, _ := v.AsFloat()
				vals[i] = f
			}
		}
		out[key] = vals
	}
	return out
}

func mapsClose(t *testing.T, got, want map[string][]float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: group count %d, want %d", label, len(got), len(want))
	}
	for key, wv := range want {
		gv, ok := got[key]
		if !ok {
			t.Fatalf("%s: missing group %q", label, key)
		}
		for i := range wv {
			if math.IsNaN(wv[i]) != math.IsNaN(gv[i]) {
				t.Fatalf("%s: group %q agg %d: got %v, want %v", label, key, i, gv[i], wv[i])
			}
			if !math.IsNaN(wv[i]) && math.Abs(gv[i]-wv[i]) > 1e-6*(1+math.Abs(wv[i])) {
				t.Fatalf("%s: group %q agg %d: got %v, want %v", label, key, i, gv[i], wv[i])
			}
		}
	}
}

func allAggSpecs() []AggSpec {
	return []AggSpec{
		{Func: AggCount, Column: ""},
		{Func: AggCount, Column: "amount"},
		{Func: AggSum, Column: "amount"},
		{Func: AggAvg, Column: "amount"},
		{Func: AggMin, Column: "amount"},
		{Func: AggMax, Column: "amount"},
		{Func: AggVariance, Column: "amount"},
		{Func: AggStddev, Column: "amount"},
		{Func: AggSum, Column: "qty"},
	}
}

func TestGroupByMatchesNaive(t *testing.T) {
	cat, ex := buildSalesCatalog(t, 5000, 13)
	tb, _ := cat.Table("sales")
	cases := []struct {
		name    string
		where   Predicate
		groupBy []string
	}{
		{"string-single-nofilter", nil, []string{"store"}},
		{"string-single-filter", Eq("product", String("p3")), []string{"store"}},
		{"composite-two-strings", nil, []string{"store", "region"}},
		{"int-group", Compare("amount", OpGt, Float(50)), []string{"qty"}},
		{"global-group", nil, nil},
		{"float-group", nil, []string{"amount"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			aggs := allAggSpecs()
			res, err := ex.Run(context.Background(), &Query{
				Table: "sales", Where: tc.where, GroupBy: tc.groupBy, Aggs: aggs,
			})
			if err != nil {
				t.Fatal(err)
			}
			want := naiveGroupBy(t, tb, tc.where, tc.groupBy, aggs)
			mapsClose(t, resultToMap(res, len(tc.groupBy)), want, tc.name)
		})
	}
}

func TestGroupByNullGroup(t *testing.T) {
	cat := NewCatalog()
	tb := MustNewTable("t", Schema{{Name: "g", Type: TypeString}, {Name: "v", Type: TypeInt}})
	_ = tb.AppendRow(String("a"), Int(1))
	_ = tb.AppendRow(NullValue(TypeString), Int(2))
	_ = tb.AppendRow(NullValue(TypeString), Int(3))
	_ = cat.Register(tb)
	ex := NewExecutor(cat)
	res, err := ex.Run(context.Background(), &Query{
		Table: "t", GroupBy: []string{"g"}, Aggs: []AggSpec{{Func: AggSum, Column: "v"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("want 2 groups (a + NULL), got %d: %v", len(res.Rows), res.Rows)
	}
	// NULL sorts first.
	if !res.Rows[0][0].Null || res.Rows[0][1].F != 5 {
		t.Errorf("NULL group = %v", res.Rows[0])
	}
	if res.Rows[1][0].S != "a" || res.Rows[1][1].F != 1 {
		t.Errorf("'a' group = %v", res.Rows[1])
	}
}

func TestConditionalAggregates(t *testing.T) {
	// The combined target+comparison query: SUM(amount) and
	// SUM(amount) FILTER (product='p1') in one pass must equal two
	// separate queries.
	cat, ex := buildSalesCatalog(t, 3000, 7)
	ctx := context.Background()
	pred := Eq("product", String("p1"))

	combined, err := ex.Run(ctx, &Query{
		Table:   "sales",
		GroupBy: []string{"store"},
		Aggs: []AggSpec{
			{Func: AggSum, Column: "amount", Alias: "comparison"},
			{Func: AggSum, Column: "amount", Filter: pred, Alias: "target"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	comparison, err := ex.Run(ctx, &Query{
		Table: "sales", GroupBy: []string{"store"},
		Aggs: []AggSpec{{Func: AggSum, Column: "amount", Alias: "v"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	target, err := ex.Run(ctx, &Query{
		Table: "sales", Where: pred, GroupBy: []string{"store"},
		Aggs: []AggSpec{{Func: AggSum, Column: "amount", Alias: "v"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = cat

	compMap := resultToMap(comparison, 1)
	targMap := resultToMap(target, 1)
	for _, row := range combined.Rows {
		key := "\x01" + row[0].Format()
		wantComp := compMap[key][0]
		if math.Abs(row[1].F-wantComp) > 1e-6 {
			t.Errorf("group %v comparison: got %v want %v", row[0], row[1].F, wantComp)
		}
		if tv, ok := targMap[key]; ok {
			if row[2].Null {
				t.Errorf("group %v target NULL, want %v", row[0], tv[0])
			} else if math.Abs(row[2].F-tv[0]) > 1e-6 {
				t.Errorf("group %v target: got %v want %v", row[0], row[2].F, tv[0])
			}
		} else if !row[2].Null {
			t.Errorf("group %v target: got %v, want NULL (no rows)", row[0], row[2].F)
		}
	}
}

func TestGroupingSetsEquivalence(t *testing.T) {
	// One grouping-sets scan over {store},{region},{qty} must equal
	// three independent queries.
	_, ex := buildSalesCatalog(t, 4000, 9)
	ctx := context.Background()
	aggs := []AggSpec{{Func: AggSum, Column: "amount"}, {Func: AggCount}}
	sets := [][]string{{"store"}, {"region"}, {"qty"}}

	joint, err := ex.RunGroupingSets(ctx, &Query{Table: "sales", Aggs: aggs}, sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(joint) != len(sets) {
		t.Fatalf("got %d results, want %d", len(joint), len(sets))
	}
	for i, set := range sets {
		solo, err := ex.Run(ctx, &Query{Table: "sales", GroupBy: set, Aggs: aggs})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resultToMap(joint[i], 1), resultToMap(solo, 1)) {
			t.Errorf("set %v: grouping-sets result differs from standalone", set)
		}
	}
}

func TestGroupingSetsShareOneScan(t *testing.T) {
	_, ex := buildSalesCatalog(t, 1000, 5)
	ex.Stats().Reset()
	_, err := ex.RunGroupingSets(context.Background(),
		&Query{Table: "sales", Aggs: []AggSpec{{Func: AggCount}}},
		[][]string{{"store"}, {"region"}, {"product"}})
	if err != nil {
		t.Fatal(err)
	}
	q, scans, rows := ex.Stats().Snapshot()
	if q != 1 || scans != 1 {
		t.Errorf("queries=%d scans=%d, want 1/1", q, scans)
	}
	if rows != 1000 {
		t.Errorf("rows read = %d, want 1000", rows)
	}
}

func TestRunGroupingSetsEmpty(t *testing.T) {
	_, ex := buildSalesCatalog(t, 10, 2)
	if _, err := ex.RunGroupingSets(context.Background(), &Query{Table: "sales", Aggs: []AggSpec{{Func: AggCount}}}, nil); err == nil {
		t.Error("empty sets must error")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	_, ex := buildSalesCatalog(t, 20000, 17)
	ctx := context.Background()
	aggs := allAggSpecs()
	for _, groupBy := range [][]string{{"store"}, {"store", "region"}, nil} {
		serial, err := ex.Run(ctx, &Query{Table: "sales", GroupBy: groupBy, Aggs: aggs})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 7} {
			par, err := ex.Run(ctx, &Query{Table: "sales", GroupBy: groupBy, Aggs: aggs, Parallelism: workers})
			if err != nil {
				t.Fatal(err)
			}
			got := resultToMap(par, len(groupBy))
			want := resultToMap(serial, len(groupBy))
			if len(got) != len(want) {
				t.Fatalf("workers=%d groupBy=%v: %d groups, want %d", workers, groupBy, len(got), len(want))
			}
			for k, wv := range want {
				gv := got[k]
				for i := range wv {
					if math.IsNaN(wv[i]) != math.IsNaN(gv[i]) ||
						(!math.IsNaN(wv[i]) && math.Abs(gv[i]-wv[i]) > 1e-6*(1+math.Abs(wv[i]))) {
						t.Fatalf("workers=%d groupBy=%v key=%q agg %d: got %v want %v", workers, groupBy, k, i, gv[i], wv[i])
					}
				}
			}
		}
	}
}

func TestParallelWithFilterAndSample(t *testing.T) {
	_, ex := buildSalesCatalog(t, 30000, 11)
	ctx := context.Background()
	q := &Query{
		Table:          "sales",
		Where:          Compare("amount", OpGt, Float(20)),
		SampleFraction: 0.5,
		SampleSeed:     99,
		GroupBy:        []string{"store"},
		Aggs:           []AggSpec{{Func: AggSum, Column: "amount"}, {Func: AggCount}},
	}
	serial, err := ex.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	qp := *q
	qp.Parallelism = 8
	par, err := ex.Run(ctx, &qp)
	if err != nil {
		t.Fatal(err)
	}
	// Counts must match exactly (same rows sampled); sums agree up to
	// float summation order.
	sm, pm := resultToMap(serial, 1), resultToMap(par, 1)
	if len(sm) != len(pm) {
		t.Fatalf("group counts differ: %d vs %d", len(sm), len(pm))
	}
	for k, sv := range sm {
		pv, ok := pm[k]
		if !ok {
			t.Fatalf("group %q missing in parallel result", k)
		}
		if sv[1] != pv[1] {
			t.Errorf("group %q count %v != %v: sampling must be partition-independent", k, sv[1], pv[1])
		}
		if math.Abs(sv[0]-pv[0]) > 1e-6*(1+math.Abs(sv[0])) {
			t.Errorf("group %q sum %v != %v", k, sv[0], pv[0])
		}
	}
}

func TestSamplingDeterministicAndProportional(t *testing.T) {
	_, ex := buildSalesCatalog(t, 50000, 5)
	ctx := context.Background()
	run := func(frac float64, seed uint64) int64 {
		res, err := ex.Run(ctx, &Query{
			Table: "sales", SampleFraction: frac, SampleSeed: seed,
			Aggs: []AggSpec{{Func: AggCount}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].I
	}
	a, b := run(0.25, 7), run(0.25, 7)
	if a != b {
		t.Errorf("same seed gave different sample sizes: %d vs %d", a, b)
	}
	c := run(0.25, 8)
	if a == c {
		t.Logf("different seeds gave same size (possible but unlikely): %d", a)
	}
	// 25% of 50k = 12500; Bernoulli std dev ~97, allow 5 sigma.
	if math.Abs(float64(a)-12500) > 500 {
		t.Errorf("sample size %d too far from expected 12500", a)
	}
	// Fraction <=0 or >=1 disables sampling.
	if got := run(0, 1); got != 50000 {
		t.Errorf("fraction 0 should disable sampling, count=%d", got)
	}
	if got := run(1, 1); got != 50000 {
		t.Errorf("fraction 1 should disable sampling, count=%d", got)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	_, ex := buildSalesCatalog(t, 2000, 10)
	res, err := ex.Run(context.Background(), &Query{
		Table: "sales", GroupBy: []string{"store"},
		Aggs:    []AggSpec{{Func: AggSum, Column: "amount", Alias: "total"}},
		OrderBy: []OrderKey{{Column: "total", Desc: true}},
		Limit:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("limit not applied: %d rows", len(res.Rows))
	}
	if !sort.SliceIsSorted(res.Rows, func(i, j int) bool {
		return res.Rows[i][1].F > res.Rows[j][1].F
	}) {
		t.Error("rows not sorted descending by total")
	}
	// ORDER BY a column not in the result errors.
	_, err = ex.Run(context.Background(), &Query{
		Table: "sales", GroupBy: []string{"store"},
		Aggs:    []AggSpec{{Func: AggCount}},
		OrderBy: []OrderKey{{Column: "nope"}},
	})
	if err == nil {
		t.Error("ORDER BY missing column must error")
	}
}

func TestQueryValidationErrors(t *testing.T) {
	_, ex := buildSalesCatalog(t, 100, 3)
	ctx := context.Background()
	cases := []*Query{
		{Table: "nope", Aggs: []AggSpec{{Func: AggCount}}},
		{Table: "sales"}, // no aggs
		{Table: "sales", GroupBy: []string{"missing"}, Aggs: []AggSpec{{Func: AggCount}}},
		{Table: "sales", Aggs: []AggSpec{{Func: AggSum, Column: "missing"}}},
		{Table: "sales", Aggs: []AggSpec{{Func: AggSum, Column: "product"}}},          // non-numeric measure
		{Table: "sales", Aggs: []AggSpec{{Func: AggSum}}},                             // SUM without column
		{Table: "sales", Aggs: []AggSpec{{Func: AggCount, Filter: Eq("zz", Int(1))}}}, // bad filter
		{Table: "sales", Where: Eq("zz", Int(1)), Aggs: []AggSpec{{Func: AggCount}}},  // bad where
	}
	for i, q := range cases {
		if _, err := ex.Run(ctx, q); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}

func TestCountOnStringColumn(t *testing.T) {
	cat := NewCatalog()
	tb := MustNewTable("t", Schema{{Name: "g", Type: TypeString}, {Name: "s", Type: TypeString}})
	_ = tb.AppendRow(String("a"), String("x"))
	_ = tb.AppendRow(String("a"), NullValue(TypeString))
	_ = cat.Register(tb)
	ex := NewExecutor(cat)
	res, err := ex.Run(context.Background(), &Query{
		Table: "t", GroupBy: []string{"g"},
		Aggs: []AggSpec{{Func: AggCount, Column: "s"}, {Func: AggCount}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][1].I != 1 {
		t.Errorf("COUNT(s) = %v, want 1 (nulls excluded)", res.Rows[0][1])
	}
	if res.Rows[0][2].I != 2 {
		t.Errorf("COUNT(*) = %v, want 2", res.Rows[0][2])
	}
}

func TestMultipleDistinctAggFilters(t *testing.T) {
	// Several aggregates with DIFFERENT filter predicates in one query:
	// the filterSet must evaluate each distinct filter once and route
	// results correctly.
	_, ex := buildSalesCatalog(t, 5000, 7)
	ctx := context.Background()
	fP1 := Eq("product", String("p1"))
	fP2 := Eq("product", String("p2"))
	fHigh := Compare("amount", OpGt, Float(50))
	res, err := ex.Run(ctx, &Query{
		Table:   "sales",
		GroupBy: []string{"region"},
		Aggs: []AggSpec{
			{Func: AggCount, Alias: "all"},
			{Func: AggCount, Filter: fP1, Alias: "p1"},
			{Func: AggCount, Filter: fP2, Alias: "p2"},
			{Func: AggCount, Filter: fHigh, Alias: "high"},
			{Func: AggCount, Filter: fP1, Alias: "p1again"}, // shared instance
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		all := row[1].I
		p1, p2, high, p1again := row[2].I, row[3].I, row[4].I, row[5].I
		if p1 != p1again {
			t.Errorf("shared filter instances disagree: %d vs %d", p1, p1again)
		}
		if p1+p2 > all || high > all {
			t.Errorf("filtered counts exceed total: all=%d p1=%d p2=%d high=%d", all, p1, p2, high)
		}
		if p1 == 0 && p2 == 0 {
			t.Errorf("filters seem inert for row %v", row)
		}
	}
	// Cross-check one cell against a direct filtered query.
	direct, err := ex.Run(ctx, &Query{
		Table: "sales", Where: And(fP1, Eq("region", String("r1"))),
		Aggs: []AggSpec{{Func: AggCount, Alias: "n"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var fromCombined int64
	for _, row := range res.Rows {
		if !row[0].Null && row[0].S == "r1" {
			fromCombined = row[2].I
		}
	}
	if fromCombined != direct.Rows[0][0].I {
		t.Errorf("combined p1@r1 = %d, direct = %d", fromCombined, direct.Rows[0][0].I)
	}
}

func TestContextCancellation(t *testing.T) {
	_, ex := buildSalesCatalog(t, 200000, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ex.Run(ctx, &Query{Table: "sales", GroupBy: []string{"store"}, Aggs: []AggSpec{{Func: AggCount}}})
	if err == nil {
		t.Error("cancelled context must abort the scan")
	}
	_, err = ex.Scan(ctx, "sales", nil, nil, 0)
	if err == nil {
		t.Error("cancelled context must abort Scan")
	}
}

func TestScan(t *testing.T) {
	_, ex := buildSalesCatalog(t, 100, 3)
	ctx := context.Background()
	res, err := ex.Scan(ctx, "sales", []string{"product", "amount"}, Eq("product", String("p1")), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) > 5 {
		t.Errorf("limit not applied: %d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[0].S != "p1" {
			t.Errorf("filter leaked row %v", row)
		}
	}
	// No columns = all columns.
	all, err := ex.Scan(ctx, "sales", nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Columns) != 5 {
		t.Errorf("want all 5 columns, got %v", all.Columns)
	}
	// RowsRead counts the rows a scan visited, not the table: an
	// unfiltered LIMIT 3 stops after three rows, an unlimited scan reads
	// all 100.
	ex.Stats().Reset()
	if _, err := ex.Scan(ctx, "sales", nil, nil, 3); err != nil {
		t.Fatal(err)
	}
	if q, scans, rows := ex.Stats().Snapshot(); q != 1 || scans != 1 || rows != 3 {
		t.Errorf("LIMIT 3 scan stats = %d/%d/%d, want 1/1/3", q, scans, rows)
	}
	if _, err := ex.Scan(ctx, "sales", nil, Eq("product", String("p1")), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, rows := ex.Stats().Snapshot(); rows != 103 {
		t.Errorf("rows read after an unlimited scan = %d, want 3+100", rows)
	}
	if _, err := ex.Scan(ctx, "zz", nil, nil, 0); err == nil {
		t.Error("missing table must error")
	}
	if _, err := ex.Scan(ctx, "sales", []string{"zz"}, nil, 0); err == nil {
		t.Error("missing column must error")
	}
	if _, err := ex.Scan(ctx, "sales", nil, Eq("zz", Int(1)), 0); err == nil {
		t.Error("bad predicate must error")
	}
}

func TestExecStats(t *testing.T) {
	_, ex := buildSalesCatalog(t, 500, 3)
	ex.Stats().Reset()
	for i := 0; i < 3; i++ {
		if _, err := ex.Run(context.Background(), &Query{Table: "sales", GroupBy: []string{"store"}, Aggs: []AggSpec{{Func: AggCount}}}); err != nil {
			t.Fatal(err)
		}
	}
	q, scans, rows := ex.Stats().Snapshot()
	if q != 3 || scans != 3 || rows != 1500 {
		t.Errorf("stats = %d/%d/%d, want 3/3/1500", q, scans, rows)
	}
	// A per-call tally sees its own query only; Stats sees all four.
	ctx, tally := ex.WithTally(context.Background())
	if _, err := ex.Run(ctx, &Query{Table: "sales", Aggs: []AggSpec{{Func: AggCount}}}); err != nil {
		t.Fatal(err)
	}
	if q, scans, rows := tally.Snapshot(); q != 1 || scans != 1 || rows != 500 {
		t.Errorf("tally = %d/%d/%d, want 1/1/500", q, scans, rows)
	}
	if q, _, rows := ex.Stats().Snapshot(); q != 4 || rows != 2000 {
		t.Errorf("stats after tallied run = %d queries, %d rows; want 4, 2000", q, rows)
	}
}

func TestRowRange(t *testing.T) {
	_, ex := buildSalesCatalog(t, 1000, 5)
	ctx := context.Background()
	count := func(lo, hi, workers int) int64 {
		res, err := ex.Run(ctx, &Query{
			Table: "sales", RowLo: lo, RowHi: hi, Parallelism: workers,
			Aggs: []AggSpec{{Func: AggCount}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].I
	}
	if got := count(0, 300, 1); got != 300 {
		t.Errorf("range [0,300) count = %d", got)
	}
	if got := count(300, 1000, 1); got != 700 {
		t.Errorf("range [300,1000) count = %d", got)
	}
	if got := count(300, 1000, 4); got != 700 {
		t.Errorf("parallel range count = %d", got)
	}
	// Phases must partition: counts over disjoint ranges sum to total.
	if count(0, 250, 1)+count(250, 500, 1)+count(500, 1000, 1) != 1000 {
		t.Error("disjoint ranges must partition the table")
	}
	// Invalid ranges error.
	for _, r := range [][2]int{{-1, 5}, {10, 5}, {0, 1001}} {
		_, err := ex.Run(ctx, &Query{Table: "sales", RowLo: r[0], RowHi: r[1], Aggs: []AggSpec{{Func: AggCount}}})
		if err == nil {
			t.Errorf("range %v should error", r)
		}
	}
}

func TestAggSpecName(t *testing.T) {
	if got := (AggSpec{Func: AggSum, Column: "amount"}).Name(); got != "SUM(amount)" {
		t.Errorf("Name = %q", got)
	}
	if got := (AggSpec{Func: AggCount}).Name(); got != "COUNT(*)" {
		t.Errorf("Name = %q", got)
	}
	if got := (AggSpec{Func: AggAvg, Column: "x", Alias: "mean_x"}).Name(); got != "mean_x" {
		t.Errorf("Name = %q", got)
	}
	if got := (AggSpec{Func: AggMin, Column: "x", Filter: Eq("x", Int(1))}).Name(); got != "MIN(x) FILTER" {
		t.Errorf("Name = %q", got)
	}
}

func TestParseAggFunc(t *testing.T) {
	for name, want := range map[string]AggFunc{
		"count": AggCount, "SUM": AggSum, "Avg": AggAvg, "mean": AggAvg,
		"MIN": AggMin, "max": AggMax, "var": AggVariance, "variance": AggVariance,
		"stddev": AggStddev, "STD": AggStddev,
	} {
		got, err := ParseAggFunc(name)
		if err != nil || got != want {
			t.Errorf("ParseAggFunc(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseAggFunc("median"); err == nil {
		t.Error("unknown aggregate must error")
	}
	if AggFunc(99).String() == "" {
		t.Error("unknown AggFunc should render")
	}
}

func TestAccumulatorFinalizeEmpty(t *testing.T) {
	var acc accumulator
	a := acc.final()
	if v := a.finalize(AggCount); v.I != 0 || v.Null {
		t.Errorf("COUNT of empty = %v, want 0", v)
	}
	for _, f := range []AggFunc{AggSum, AggAvg, AggMin, AggMax, AggVariance, AggStddev} {
		if v := a.finalize(f); !v.Null {
			t.Errorf("%v of empty group = %v, want NULL", f, v)
		}
	}
	if v := a.finalize(AggFunc(99)); !v.Null {
		t.Errorf("unknown agg should finalize NULL, got %v", v)
	}
}

func TestResultHelpers(t *testing.T) {
	res := &Result{
		Columns: []string{"a", "b"},
		Rows:    [][]Value{{String("x"), Float(1)}, {String("y"), Float(2)}},
	}
	if res.ColumnIndex("b") != 1 || res.ColumnIndex("zz") != -1 {
		t.Error("ColumnIndex wrong")
	}
	if res.NumRows() != 2 {
		t.Error("NumRows wrong")
	}
	v, err := res.Value(0, "a")
	if err != nil || v.S != "x" {
		t.Errorf("Value = %v, %v", v, err)
	}
	if _, err := res.Value(0, "zz"); err == nil {
		t.Error("missing column must error")
	}
	if _, err := res.Value(5, "a"); err == nil {
		t.Error("row out of range must error")
	}
	if f, ok := res.Float(1, "b"); !ok || f != 2 {
		t.Errorf("Float = %v, %v", f, ok)
	}
	if _, ok := res.Float(1, "zz"); ok {
		t.Error("Float of missing column must fail")
	}
	s := res.String()
	if s == "" {
		t.Error("String render empty")
	}
}

func TestSplitmixDistribution(t *testing.T) {
	// splitmix64 should produce a roughly uniform keep-rate.
	s := newSampler(0.5, 1, 0)
	kept := 0
	for i := 0; i < 100000; i++ {
		if s.keep(i) {
			kept++
		}
	}
	if kept < 49000 || kept > 51000 {
		t.Errorf("keep rate %d/100000, want ~50000", kept)
	}
}
