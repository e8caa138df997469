package core

import (
	"fmt"
	"math"
	"testing"

	"seedb/internal/engine"
	"seedb/internal/stats"
)

// rolesTable builds a table with a known mix of column roles.
func rolesTable(t *testing.T) (*engine.Table, *stats.TableStats) {
	t.Helper()
	tb := engine.MustNewTable("mix", engine.Schema{
		{Name: "dim_s", Type: engine.TypeString},
		{Name: "dim_i", Type: engine.TypeInt},     // low-cardinality int: dim AND measure
		{Name: "wide_s", Type: engine.TypeString}, // too many distinct values
		{Name: "meas_f", Type: engine.TypeFloat},
		{Name: "ts", Type: engine.TypeTime},
	})
	for i := 0; i < 600; i++ {
		_ = tb.AppendRow(
			engine.String(fmt.Sprintf("g%d", i%5)),
			engine.Int(int64(i%3)),
			engine.String(fmt.Sprintf("unique%d", i)),
			engine.Float(float64(i)),
			engine.Value{Kind: engine.TypeTime, I: int64(i % 4)},
		)
	}
	return tb, stats.NewCollector().Describe(tb)
}

func TestDetectRolesAutomatic(t *testing.T) {
	tb, ts := rolesTable(t)
	opts, _ := DefaultOptions().normalize()
	roles, err := detectRoles(ts, tb.Schema(), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	// meas_f (600 distinct floats) becomes a BINNED dimension under the
	// default BinContinuousDims; wide_s stays excluded (strings cannot
	// bin).
	wantDims := []string{"dim_i", "dim_s", "meas_f", "ts"}
	if len(roles.dims) != len(wantDims) {
		t.Fatalf("dims = %v, want %v", roles.dims, wantDims)
	}
	for i, d := range wantDims {
		if roles.dims[i] != d {
			t.Errorf("dims[%d] = %q, want %q", i, roles.dims[i], d)
		}
	}
	if roles.binWidths["meas_f"] <= 0 {
		t.Errorf("meas_f should be binned, widths = %v", roles.binWidths)
	}
	if roles.binWidths["dim_s"] != 0 || roles.binWidths["dim_i"] != 0 {
		t.Errorf("low-cardinality dims must not be binned: %v", roles.binWidths)
	}
	wantMeasures := []string{"dim_i", "meas_f"}
	if len(roles.measures) != len(wantMeasures) {
		t.Fatalf("measures = %v, want %v", roles.measures, wantMeasures)
	}
	// wide_s excluded: 600 distinct > 500 default cap, not binnable.
	for _, d := range roles.dims {
		if d == "wide_s" {
			t.Error("wide_s must be excluded from dimensions")
		}
	}
	// With binning disabled, meas_f drops out again.
	noBin := opts
	noBin.BinContinuousDims = false
	roles2, err := detectRoles(ts, tb.Schema(), noBin, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range roles2.dims {
		if d == "meas_f" {
			t.Error("binning disabled: meas_f must not be a dimension")
		}
	}
}

func TestBinWidthFor(t *testing.T) {
	cases := []struct {
		min, max float64
		bins     int
		typ      engine.Type
		want     float64
	}{
		{0, 120, 12, engine.TypeFloat, 10},
		{0, 100, 12, engine.TypeFloat, 10},  // 8.33 → 10
		{0, 50, 12, engine.TypeFloat, 5},    // 4.16 → 5
		{0, 24, 12, engine.TypeFloat, 2},    // 2 → 2
		{0, 1.2, 12, engine.TypeFloat, 0.1}, // 0.1 → 0.1
		{0, 3, 12, engine.TypeInt, 1},       // 0.25 floored to 1 for ints
		{5, 5, 12, engine.TypeFloat, 0},     // degenerate range
	}
	for _, c := range cases {
		if got := binWidthFor(c.min, c.max, c.bins, c.typ); got != c.want {
			t.Errorf("binWidthFor(%v,%v,%d,%v) = %v, want %v", c.min, c.max, c.bins, c.typ, got, c.want)
		}
	}
	if got := binWidthFor(0, 100, 0, engine.TypeFloat); got <= 0 {
		t.Error("bins clamp should still produce a width")
	}
}

func TestViewKeyIncludesBinWidth(t *testing.T) {
	a := View{Dimension: "x", Measure: "m", Func: engine.AggSum}
	b := View{Dimension: "x", Measure: "m", Func: engine.AggSum, BinWidth: 10}
	if a.Key() == b.Key() {
		t.Error("binned and raw views must have distinct keys")
	}
	if b.String() != "SUM(m) BY bin(x, 10)" {
		t.Errorf("binned String = %q", b.String())
	}
	sql := b.TargetSQL("t", nil)
	if sql != "SELECT bin(x, 10), SUM(m) FROM t GROUP BY bin(x, 10)" {
		t.Errorf("binned TargetSQL = %q", sql)
	}
}

func TestDetectRolesOverrides(t *testing.T) {
	tb, ts := rolesTable(t)
	opts, _ := DefaultOptions().normalize()
	opts.Dimensions = []string{"dim_s"}
	opts.Measures = []string{"meas_f"}
	roles, err := detectRoles(ts, tb.Schema(), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(roles.dims) != 1 || roles.dims[0] != "dim_s" {
		t.Errorf("dims = %v", roles.dims)
	}
	if len(roles.measures) != 1 || roles.measures[0] != "meas_f" {
		t.Errorf("measures = %v", roles.measures)
	}
	// Errors: unknown dimension, unknown measure, non-numeric measure.
	bad := opts
	bad.Dimensions = []string{"zz"}
	if _, err := detectRoles(ts, tb.Schema(), bad, nil); err == nil {
		t.Error("unknown dimension must error")
	}
	bad = opts
	bad.Measures = []string{"zz"}
	if _, err := detectRoles(ts, tb.Schema(), bad, nil); err == nil {
		t.Error("unknown measure must error")
	}
	bad = opts
	bad.Measures = []string{"dim_s"}
	if _, err := detectRoles(ts, tb.Schema(), bad, nil); err == nil {
		t.Error("string measure must error")
	}
}

func TestDetectRolesNoCandidates(t *testing.T) {
	tb := engine.MustNewTable("onlyfloat", engine.Schema{{Name: "f", Type: engine.TypeFloat}})
	_ = tb.AppendRow(engine.Float(1))
	ts := stats.NewCollector().Describe(tb)
	opts, _ := DefaultOptions().normalize()
	if _, err := detectRoles(ts, tb.Schema(), opts, nil); err == nil {
		t.Error("no dimensions must error")
	}
	tb2 := engine.MustNewTable("onlystring", engine.Schema{{Name: "s", Type: engine.TypeString}})
	_ = tb2.AppendRow(engine.String("x"))
	ts2 := stats.NewCollector().Describe(tb2)
	if _, err := detectRoles(ts2, tb2.Schema(), opts, nil); err == nil {
		t.Error("no measures must error")
	}
}

func TestEnumerateViewsCount(t *testing.T) {
	roles := attributeRoles{
		dims:     []string{"a1", "a2", "a3"},
		measures: []string{"m1", "m2"},
	}
	funcs := []engine.AggFunc{engine.AggSum, engine.AggCount}
	views := EnumerateViews(roles, funcs)
	if len(views) != 3*2*2 {
		t.Fatalf("views = %d, want 12", len(views))
	}
	// a==m skipping.
	roles2 := attributeRoles{dims: []string{"x", "y"}, measures: []string{"x", "z"}}
	views2 := EnumerateViews(roles2, []engine.AggFunc{engine.AggSum})
	// (x,z), (y,x), (y,z) — (x,x) skipped.
	if len(views2) != 3 {
		t.Fatalf("views = %v, want 3", views2)
	}
	for _, v := range views2 {
		if v.Dimension == v.Measure {
			t.Errorf("view %v groups and aggregates the same column", v)
		}
	}
}

// TestViewSpaceQuadraticGrowth checks the paper's claim that candidate
// views grow quadratically in the attribute count (E3's correctness
// side): doubling both dims and measures quadruples the view count.
func TestViewSpaceQuadraticGrowth(t *testing.T) {
	mkRoles := func(d, m int) attributeRoles {
		r := attributeRoles{}
		for i := 0; i < d; i++ {
			r.dims = append(r.dims, fmt.Sprintf("a%d", i))
		}
		for i := 0; i < m; i++ {
			r.measures = append(r.measures, fmt.Sprintf("m%d", i))
		}
		return r
	}
	funcs := []engine.AggFunc{engine.AggSum}
	n1 := len(EnumerateViews(mkRoles(5, 5), funcs))
	n2 := len(EnumerateViews(mkRoles(10, 10), funcs))
	n4 := len(EnumerateViews(mkRoles(20, 20), funcs))
	if n2 != 4*n1 || n4 != 4*n2 {
		t.Errorf("growth not quadratic: %d, %d, %d", n1, n2, n4)
	}
}

func TestViewStringsAndSQL(t *testing.T) {
	v := View{Dimension: "store", Measure: "amount", Func: engine.AggSum}
	if v.String() != "SUM(amount) BY store" {
		t.Errorf("String = %q", v.String())
	}
	pred := engine.Eq("product", engine.String("Laserwave"))
	want := "SELECT store, SUM(amount) FROM Sales WHERE product = 'Laserwave' GROUP BY store"
	if got := v.TargetSQL("Sales", pred); got != want {
		t.Errorf("TargetSQL = %q, want %q", got, want)
	}
	wantC := "SELECT store, SUM(amount) FROM Sales GROUP BY store"
	if got := v.ComparisonSQL("Sales"); got != wantC {
		t.Errorf("ComparisonSQL = %q", got)
	}
	cnt := View{Dimension: "store", Func: engine.AggCount}
	if got := cnt.TargetSQL("Sales", nil); got != "SELECT store, COUNT(*) FROM Sales GROUP BY store" {
		t.Errorf("count TargetSQL = %q", got)
	}
	q := Query{Table: "Sales", Predicate: pred}
	if q.String() != "SELECT * FROM Sales WHERE product = 'Laserwave'" {
		t.Errorf("Query.String = %q", q.String())
	}
	if (Query{Table: "Sales"}).String() != "SELECT * FROM Sales" {
		t.Error("no-predicate Query.String wrong")
	}
}

func TestViewKeyUniqueness(t *testing.T) {
	views := EnumerateViews(attributeRoles{
		dims:     []string{"a", "b"},
		measures: []string{"x", "y"},
	}, []engine.AggFunc{engine.AggSum, engine.AggAvg})
	seen := map[string]bool{}
	for _, v := range views {
		if seen[v.Key()] {
			t.Errorf("duplicate key %q", v.Key())
		}
		seen[v.Key()] = true
	}
}

func TestMaxDeltaKey(t *testing.T) {
	d := &ViewData{
		Keys:       []string{"a", "b", "c"},
		Target:     []float64{0.5, 0.3, 0.2},
		Comparison: []float64{0.2, 0.3, 0.5},
	}
	key, delta := d.MaxDeltaKey()
	if key != "a" || delta != 0.3 {
		t.Errorf("MaxDeltaKey = %q, %v", key, delta)
	}
	empty := &ViewData{}
	if k, _ := empty.MaxDeltaKey(); k != "" {
		t.Errorf("empty MaxDeltaKey = %q", k)
	}
}

// TestDetectRolesFloatOrderIndependent: whether a float column with NaN
// or ±Inf among its values is offered as a binned dimension, and how
// wide its bins are, must not depend on where in the table those values
// sit — the column's range is taken over its finite values.
func TestDetectRolesFloatOrderIndependent(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	roles := func(vals ...float64) attributeRoles {
		tb := engine.MustNewTable("f", engine.Schema{
			{Name: "d", Type: engine.TypeString},
			{Name: "f", Type: engine.TypeFloat},
		})
		for i, v := range vals {
			if err := tb.AppendRow(engine.String(fmt.Sprint(i%2)), engine.Float(v)); err != nil {
				t.Fatal(err)
			}
		}
		opts, _ := DefaultOptions().normalize()
		opts.MaxGroupsPerDim = 2 // three distinct floats are "continuous"
		r, err := detectRoles(stats.NewCollector().Describe(tb), tb.Schema(), opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := roles(1, 2, 3)
	if want.binWidths["f"] <= 0 {
		t.Fatalf("f should be a binned dimension of the plain table: %+v", want)
	}
	for name, vals := range map[string][]float64{
		"NaN last":   {1, 3, nan},
		"NaN first":  {nan, 1, 3},
		"Inf middle": {1, inf, -inf, 3},
		"Inf first":  {-inf, inf, 1, 3},
	} {
		got := roles(vals...)
		if fmt.Sprint(got.dims) != fmt.Sprint(want.dims) || got.binWidths["f"] != want.binWidths["f"] {
			t.Errorf("%s: dims %v widths %v, want %v %v", name, got.dims, got.binWidths, want.dims, want.binWidths)
		}
	}
}
