package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"seedb/internal/engine"
)

func statsTable(t *testing.T) *engine.Table {
	t.Helper()
	tb := engine.MustNewTable("t", engine.Schema{
		{Name: "city", Type: engine.TypeString},
		{Name: "city_abbrev", Type: engine.TypeString}, // perfectly correlated with city
		{Name: "constant", Type: engine.TypeString},    // single value
		{Name: "rand_dim", Type: engine.TypeString},    // independent of city
		{Name: "amount", Type: engine.TypeFloat},
		{Name: "qty", Type: engine.TypeInt},
	})
	cities := []string{"Boston", "Seattle", "NewYork", "SanFrancisco"}
	abbrevs := []string{"BOS", "SEA", "NYC", "SFO"}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		c := rng.Intn(len(cities))
		r := fmt.Sprintf("r%d", rng.Intn(5))
		var amount engine.Value
		if i%100 == 0 {
			amount = engine.NullValue(engine.TypeFloat)
		} else {
			amount = engine.Float(float64(i % 10))
		}
		if err := tb.AppendRow(
			engine.String(cities[c]), engine.String(abbrevs[c]), engine.String("only"),
			engine.String(r), amount, engine.Int(int64(i%7)),
		); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestCollectBasics(t *testing.T) {
	tb := statsTable(t)
	ts := NewCollector().Describe(tb)
	if ts.Rows != 1000 || ts.Table != "t" {
		t.Fatalf("table stats header wrong: %+v", ts)
	}
	city, err := ts.Column("city")
	if err != nil {
		t.Fatal(err)
	}
	if city.Distinct != 4 || city.Nulls != 0 {
		t.Errorf("city stats: %+v", city)
	}
	if city.NormEntropy < 0.9 {
		t.Errorf("city is near-uniform over 4 values; NormEntropy = %v", city.NormEntropy)
	}
	cons, _ := ts.Column("constant")
	if cons.Distinct != 1 || cons.NormEntropy != 0 || cons.Entropy != 0 {
		t.Errorf("constant column stats: %+v", cons)
	}
	amount, _ := ts.Column("amount")
	if amount.Nulls != 10 {
		t.Errorf("amount nulls = %d, want 10", amount.Nulls)
	}
	if amount.Min != 0 || amount.Max != 9 {
		t.Errorf("amount range = [%v,%v]", amount.Min, amount.Max)
	}
	if _, err := ts.Column("nope"); err == nil {
		t.Error("missing column must error")
	}
}

func TestCollectTopValues(t *testing.T) {
	tb := engine.MustNewTable("top", engine.Schema{{Name: "s", Type: engine.TypeString}})
	for i := 0; i < 6; i++ {
		_ = tb.AppendRow(engine.String("common"))
	}
	for _, s := range []string{"a", "a", "b", "c", "d", "e", "f"} {
		_ = tb.AppendRow(engine.String(s))
	}
	cs, _ := NewCollector().Describe(tb).Column("s")
	if len(cs.TopValues) != 5 {
		t.Fatalf("TopValues len = %d, want capped at 5", len(cs.TopValues))
	}
	if cs.TopValues[0].Value != "common" || cs.TopValues[0].Count != 6 {
		t.Errorf("top value = %+v", cs.TopValues[0])
	}
	if cs.TopValues[1].Value != "a" || cs.TopValues[1].Count != 2 {
		t.Errorf("second value = %+v", cs.TopValues[1])
	}
}

func TestCollectTimeColumn(t *testing.T) {
	tb := engine.MustNewTable("tt", engine.Schema{{Name: "ts", Type: engine.TypeTime}})
	_ = tb.AppendRow(engine.Value{Kind: engine.TypeTime, I: 100})
	_ = tb.AppendRow(engine.Value{Kind: engine.TypeTime, I: 300})
	cs, _ := NewCollector().Describe(tb).Column("ts")
	if cs.Min != 100 || cs.Max != 300 {
		t.Errorf("time range = [%v,%v]", cs.Min, cs.Max)
	}
	if cs.Distinct != 2 {
		t.Errorf("distinct = %d", cs.Distinct)
	}
}

func TestIsDimensionAndMeasure(t *testing.T) {
	tb := statsTable(t)
	ts := NewCollector().Describe(tb)
	city, _ := ts.Column("city")
	if !city.IsDimension(100) {
		t.Error("city should be a dimension")
	}
	if city.IsDimension(3) {
		t.Error("city exceeds maxDistinct 3")
	}
	if city.IsMeasure() {
		t.Error("city is not a measure")
	}
	amount, _ := ts.Column("amount")
	if !amount.IsMeasure() {
		t.Error("amount should be a measure")
	}
	if amount.IsDimension(1000) {
		t.Error("float columns are not dimensions")
	}
	qty, _ := ts.Column("qty")
	if !qty.IsDimension(100) || !qty.IsMeasure() {
		t.Error("int columns are both dimension candidates and measures")
	}
}

// cramersV returns the collector's Cramér's V for one ordered pair.
func cramersV(t *testing.T, tb *engine.Table, a, b string) (float64, error) {
	t.Helper()
	c := NewCollector()
	if _, err := c.CorrelationClusters(tb, []string{a, b}, 0); err != nil {
		return 0, err
	}
	schema := tb.Schema()
	return c.stateFor(tb).pairs[[2]int{schema.ColumnIndex(a), schema.ColumnIndex(b)}].v, nil
}

func TestCramersVPerfectCorrelation(t *testing.T) {
	tb := statsTable(t)
	v, err := cramersV(t, tb, "city", "city_abbrev")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-9 {
		t.Errorf("V(city, abbrev) = %v, want 1 (bijective)", v)
	}
}

func TestCramersVIndependence(t *testing.T) {
	tb := statsTable(t)
	v, err := cramersV(t, tb, "city", "rand_dim")
	if err != nil {
		t.Fatal(err)
	}
	if v > 0.2 {
		t.Errorf("V(city, rand_dim) = %v, want near 0 (independent)", v)
	}
}

func TestCramersVDegenerate(t *testing.T) {
	tb := statsTable(t)
	v, err := cramersV(t, tb, "city", "constant")
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("V against constant = %v, want 0 (degenerate)", v)
	}
	if _, err := cramersV(t, tb, "city", "missing"); err == nil {
		t.Error("missing column must error")
	}
	if _, err := cramersV(t, tb, "missing", "city"); err == nil {
		t.Error("missing column must error")
	}
}

func TestCramersVAllNull(t *testing.T) {
	tb := engine.MustNewTable("n", engine.Schema{
		{Name: "a", Type: engine.TypeString},
		{Name: "b", Type: engine.TypeString},
	})
	_ = tb.AppendRow(engine.NullValue(engine.TypeString), engine.String("x"))
	_ = tb.AppendRow(engine.String("y"), engine.NullValue(engine.TypeString))
	v, err := cramersV(t, tb, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("V with no overlapping rows = %v", v)
	}
}

func TestCramersVNonStringColumns(t *testing.T) {
	tb := engine.MustNewTable("n", engine.Schema{
		{Name: "i", Type: engine.TypeInt},
		{Name: "j", Type: engine.TypeInt},
	})
	for k := 0; k < 200; k++ {
		_ = tb.AppendRow(engine.Int(int64(k%4)), engine.Int(int64((k%4)*10)))
	}
	v, err := cramersV(t, tb, "i", "j")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-9 {
		t.Errorf("V of deterministic int mapping = %v, want 1", v)
	}
}

func TestCorrelationClusters(t *testing.T) {
	tb := statsTable(t)
	c := NewCollector()
	clusters, err := c.CorrelationClusters(tb, []string{"city", "city_abbrev", "rand_dim", "constant"}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// city+city_abbrev together; rand_dim alone; constant alone.
	if len(clusters) != 3 {
		t.Fatalf("clusters = %v, want 3", clusters)
	}
	found := false
	for _, c := range clusters {
		if len(c) == 2 && c[0] == "city" && c[1] == "city_abbrev" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected {city, city_abbrev} cluster, got %v", clusters)
	}
	if _, err := c.CorrelationClusters(tb, []string{"city", "missing"}, 0.9); err == nil {
		t.Error("missing column must error")
	}
	// Threshold 0 unions everything (V >= 0 always).
	all, err := c.CorrelationClusters(tb, []string{"city", "rand_dim"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Errorf("threshold 0 should produce one cluster, got %v", all)
	}
}

func TestCollectorCache(t *testing.T) {
	tb := statsTable(t)
	c := NewCollector()
	s1 := c.Stats(tb)
	s2 := c.Stats(tb)
	if s1 != s2 {
		t.Error("second Stats call should hit the cache")
	}
	// Appending rows changes the cache key.
	_ = tb.AppendRow(engine.String("X"), engine.String("X"), engine.String("only"),
		engine.String("r0"), engine.Float(1), engine.Int(1))
	s3 := c.Stats(tb)
	if s3 == s1 {
		t.Error("stats must refresh after growth")
	}
	if s3.Rows != s1.Rows+1 {
		t.Errorf("refreshed rows = %d", s3.Rows)
	}
	c.Invalidate(tb.Name())
	s4 := c.Stats(tb)
	if s4 == s3 {
		t.Error("invalidate should drop the cache entry")
	}
	c.Invalidate("")
	s5 := c.Stats(tb)
	if s5 == s4 {
		t.Error("invalidate-all should drop everything")
	}
}

// TestInvalidateMatchesWholeName: invalidating table "a" drops the
// state of every instance named "a" and keeps that of a table named
// "a#b", whose identity also starts with "a#".
func TestInvalidateMatchesWholeName(t *testing.T) {
	schema := engine.Schema{{Name: "s", Type: engine.TypeString}}
	a, reloaded, ab := engine.MustNewTable("a", schema), engine.MustNewTable("a", schema), engine.MustNewTable("a#b", schema)
	c := NewCollector()
	before := map[*engine.Table]*TableStats{}
	for _, tb := range []*engine.Table{a, reloaded, ab} {
		if err := tb.AppendRow(engine.String("x")); err != nil {
			t.Fatal(err)
		}
		before[tb] = c.Stats(tb)
	}
	c.Invalidate("a")
	if c.Stats(ab) != before[ab] {
		t.Error(`Invalidate("a") dropped the state of table "a#b"`)
	}
	for _, tb := range []*engine.Table{a, reloaded} {
		if c.Stats(tb) == before[tb] {
			t.Errorf(`Invalidate("a") kept the state of %s`, tb.Identity())
		}
	}
	c.Invalidate("a#b")
	if c.Stats(ab) == before[ab] {
		t.Error(`Invalidate("a#b") kept the state of table "a#b"`)
	}
}

func TestEntropyUniformVsSkewed(t *testing.T) {
	mk := func(name string, counts []int) *engine.Table {
		tb := engine.MustNewTable(name, engine.Schema{{Name: "s", Type: engine.TypeString}})
		for v, c := range counts {
			for i := 0; i < c; i++ {
				_ = tb.AppendRow(engine.String(fmt.Sprintf("v%d", v)))
			}
		}
		return tb
	}
	uniform, _ := NewCollector().Describe(mk("u", []int{25, 25, 25, 25})).Column("s")
	skewed, _ := NewCollector().Describe(mk("s", []int{97, 1, 1, 1})).Column("s")
	if uniform.NormEntropy < 0.999 {
		t.Errorf("uniform NormEntropy = %v, want 1", uniform.NormEntropy)
	}
	if skewed.NormEntropy >= uniform.NormEntropy {
		t.Errorf("skewed entropy %v should be below uniform %v", skewed.NormEntropy, uniform.NormEntropy)
	}
}

// TestCollectorConcurrentCold: concurrent cold callers queue behind one
// collection — every caller gets the same stored instance instead of
// computing its own.
func TestCollectorConcurrentCold(t *testing.T) {
	tb := engine.MustNewTable("sf", engine.Schema{
		{Name: "a", Type: engine.TypeString},
		{Name: "b", Type: engine.TypeString},
	})
	for i := 0; i < 100; i++ {
		if err := tb.AppendRow(engine.String(string(rune('a'+i%5))), engine.String(string(rune('a'+i%3)))); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCollector()
	const callers = 16
	stats := make([]*TableStats, callers)
	clusters := make([][][]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i] = c.Stats(tb)
			cl, err := c.CorrelationClusters(tb, []string{"a", "b"}, 0.95)
			if err != nil {
				t.Error(err)
				return
			}
			clusters[i] = cl
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if stats[i] != stats[0] {
			t.Fatalf("caller %d got a different TableStats instance", i)
		}
		if len(clusters[i]) != len(clusters[0]) {
			t.Fatalf("caller %d got a different clustering", i)
		}
	}
}

// TestFloatRangeIgnoresRowOrder: Min and Max of a float column are
// taken over its finite values, so the same rows in any order — NaN or
// ±Inf first, last or in between — yield the same ColumnStats.
func TestFloatRangeIgnoresRowOrder(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	collect := func(vals ...float64) *ColumnStats {
		tb := engine.MustNewTable("f", engine.Schema{{Name: "f", Type: engine.TypeFloat}})
		for _, v := range vals {
			if err := tb.AppendRow(engine.Float(v)); err != nil {
				t.Fatal(err)
			}
		}
		return NewCollector().Describe(tb).Columns["f"]
	}
	for _, orders := range [][][]float64{
		{{1, nan, 2}, {nan, 1, 2}, {2, 1, nan}},
		{{1, inf, 2, -inf}, {-inf, inf, 2, 1}, {inf, 1, -inf, 2}},
	} {
		want := collect(orders[0]...)
		if want.Min != 1 || want.Max != 2 || want.Distinct != len(orders[0]) {
			t.Errorf("%v: range [%v,%v] distinct %d, want the finite [1,2]", orders[0], want.Min, want.Max, want.Distinct)
		}
		for _, order := range orders[1:] {
			if err := columnStatsEqual(collect(order...), want, true); err != nil {
				t.Errorf("%v vs %v: %v", order, orders[0], err)
			}
		}
	}
	if cs := collect(nan, inf); cs.Min != 0 || cs.Max != 0 || cs.Distinct != 2 {
		t.Errorf("no finite value: %+v", cs)
	}
}

// TestCollectorCoherentUnderAppends: 8 goroutines ask for statistics
// and clusterings while another appends. Every TableStats handed out
// must describe exactly the prefix its Rows names — never statistics of
// one version filed under another. Meaningful under -race.
func TestCollectorCoherentUnderAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	row := func() []engine.Value {
		d := rng.Intn(6)
		return []engine.Value{engine.String(fmt.Sprint("a", d)), engine.String(fmt.Sprint("b", d/2)),
			engine.Int(int64(rng.Intn(40))), engine.Float(rng.Float64())}
	}
	batches := make([][][]engine.Value, 40)
	for i := range batches {
		batches[i] = make([][]engine.Value, 1+rng.Intn(300))
		for j := range batches[i] {
			batches[i][j] = row()
		}
	}
	tb := engine.MustNewTable("live", engine.Schema{
		{Name: "d1", Type: engine.TypeString}, {Name: "d2", Type: engine.TypeString},
		{Name: "g", Type: engine.TypeInt}, {Name: "m", Type: engine.TypeFloat},
	})
	c := NewCollector()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, b := range batches {
			if _, err := tb.Append(b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const readers = 8
	seen := make([][]*TableStats, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for running := true; running; {
				select {
				case <-done:
					running = false // one more round, on the final table
				default:
				}
				seen[r] = append(seen[r], c.Stats(tb))
				if _, err := c.CorrelationClusters(tb, []string{"d1", "d2", "g"}, 0.8); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	oracle := map[int]*TableStats{}
	for r := range seen {
		for _, ts := range seen[r] {
			if oracle[ts.Rows] == nil {
				oracle[ts.Rows] = oracleCollect(tb, ts.Rows)
			}
			if err := tableStatsEqual(ts, oracle[ts.Rows], false); err != nil {
				t.Fatalf("reader %d: %v", r, err)
			}
		}
		if last := seen[r][len(seen[r])-1]; last.Rows != tb.NumRows() {
			t.Errorf("reader %d: last answer covers %d of %d rows", r, last.Rows, tb.NumRows())
		}
	}
	if err := checkAgainstOracle(c, tb, []string{"d1", "d2", "g"}); err != nil {
		t.Fatal(err)
	}
}

// TestClustersColumnNamesWithCommas: column sets whose names join to
// the same comma-separated string are different questions.
func TestClustersColumnNamesWithCommas(t *testing.T) {
	tb := engine.MustNewTable("csv", engine.Schema{
		{Name: "a,b", Type: engine.TypeString}, {Name: "c", Type: engine.TypeString},
		{Name: "a", Type: engine.TypeString}, {Name: "b,c", Type: engine.TypeString},
	})
	for i := 0; i < 400; i++ {
		// "a,b" determines "c"; "a" and "b,c" are independent.
		if err := tb.AppendRow(engine.String(fmt.Sprint(i%4)), engine.String(fmt.Sprint("x", i%4)),
			engine.String(fmt.Sprint(i%2)), engine.String(fmt.Sprint(i/2%2))); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCollector()
	for _, tc := range []struct {
		cols []string
		want string
	}{
		{[]string{"a,b", "c"}, "[[a,b c]]"},
		{[]string{"a", "b,c"}, "[[a] [b,c]]"},
	} {
		got, err := c.CorrelationClusters(tb, tc.cols, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != tc.want {
			t.Errorf("clusters of %q = %v, want %s", tc.cols, got, tc.want)
		}
	}
}

// costTable builds a table of 5 all-distinct float measures beside 8
// string and 2 int dimensions, the shape whose statistics cost most.
func costTable(t *testing.T, rows int) *engine.Table {
	t.Helper()
	var schema engine.Schema
	for i := 0; i < 8; i++ {
		schema = append(schema, engine.ColumnDef{Name: fmt.Sprint("d", i), Type: engine.TypeString})
	}
	schema = append(schema, engine.ColumnDef{Name: "i0", Type: engine.TypeInt}, engine.ColumnDef{Name: "i1", Type: engine.TypeInt})
	for i := 0; i < 5; i++ {
		schema = append(schema, engine.ColumnDef{Name: fmt.Sprint("m", i), Type: engine.TypeFloat})
	}
	tb := engine.MustNewTable("cost", schema)
	rng := rand.New(rand.NewSource(int64(rows)))
	ld := tb.StartLoad()
	for r := 0; r < rows; r++ {
		for i := 0; i < 8; i++ {
			ld.Column(i).(*engine.StringColumn).AppendString(fmt.Sprint("v", rng.Intn(3+5*i)))
		}
		ld.Column(8).(*engine.IntColumn).AppendInt(int64(rng.Intn(12)))
		ld.Column(9).(*engine.IntColumn).AppendInt(int64(rng.Intn(7)) * 1e9)
		for i := 10; i < 15; i++ {
			ld.Column(i).(*engine.FloatColumn).AppendFloat(rng.NormFloat64())
		}
	}
	if err := ld.Close(); err != nil {
		t.Fatal(err)
	}
	return tb
}

// TestExtensionCostIsTheDelta: what a query pays after an append is
// proportional to the append, not to the table — shown without a clock.
// The visit counters say an extension by 600 rows reads exactly 600
// cells per column and 600 per attribute pair, and the allocations of
// such an extension (finalizing included) are the same on a 10k-row and
// a 200k-row table.
func TestExtensionCostIsTheDelta(t *testing.T) {
	const batch, steps = 600, 10
	dims := []string{"d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "i0", "i1"}
	pairs := len(dims) * (len(dims) - 1) / 2
	allocs := map[int]float64{}
	for _, base := range []int{10_000, 200_000} {
		if testing.Short() && base > 10_000 {
			continue
		}
		full := costTable(t, base+(steps+1)*batch)
		tb, err := full.ExtractRange("cost", 0, base)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCollector()
		extend := func() {
			c.Stats(tb)
			if _, err := c.CorrelationClusters(tb, dims, 0.95); err != nil {
				t.Fatal(err)
			}
		}
		extend()
		st := c.stateFor(tb)
		if st.cellVisits != base*tb.NumCols() || st.pairVisits != base*pairs {
			t.Fatalf("cold at %d rows: %d cell and %d pair visits, want %d and %d",
				base, st.cellVisits, st.pairVisits, base*tb.NumCols(), base*pairs)
		}
		next := base
		appendBatch := func() {
			rows := make([][]engine.Value, batch)
			for i := range rows {
				rows[i] = full.Row(next + i)
			}
			next += batch
			if _, err := tb.Append(rows); err != nil {
				t.Fatal(err)
			}
		}
		cells, pairCells := st.cellVisits, st.pairVisits
		appendBatch()
		extend()
		if got, want := st.cellVisits-cells, batch*tb.NumCols(); got != want {
			t.Errorf("%d rows + %d: %d cells visited, want %d", base, batch, got, want)
		}
		if got, want := st.pairVisits-pairCells, batch*pairs; got != want {
			t.Errorf("%d rows + %d: %d pair cells visited, want %d", base, batch, got, want)
		}
		// AllocsPerRun cannot keep the append out of the measurement, so
		// the append alone is measured too and subtracted.
		both := testing.AllocsPerRun(steps/2-1, func() { appendBatch(); extend() })
		alone := testing.AllocsPerRun(steps/2-1, appendBatch)
		allocs[base] = both - alone
	}
	if small, large := allocs[10_000], allocs[200_000]; !testing.Short() && math.Abs(large-small) > 16 {
		t.Errorf("allocations per extension: %v on 10k rows, %v on 200k rows; want equal within a constant", small, large)
	}
}
