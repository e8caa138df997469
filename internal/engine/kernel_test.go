package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// ---------------------------------------------------------------------
// Differential harness: every query runs through the naive oracle
// (oracle_test.go) and through every path the engine can take — direct
// scan, chunk-partial store cold and warm, split-and-merged partials,
// parallelism 1/2/3 — and the results must be bit-identical.

// buildKernelTable makes a randomized table exercising every column
// kind, null patterns, a huge-range int column (forces the generic
// grouper layout), and enough rows to straddle chunk boundaries. Its
// float columns cover the binned-float key space: amt (signed, NULLs),
// neg (an all-negative range), odd (small values around ±0 — and, in
// every other table, NaNs of several payloads and ±Inf, which push the
// column off the dense layout and make it the awkward measure) and nul
// (every row NULL).
func buildKernelTable(tb testing.TB, rng *rand.Rand, rows int) *Table {
	tb.Helper()
	t := MustNewTable("kt", Schema{
		{Name: "dim", Type: TypeString},
		{Name: "cat", Type: TypeString},
		{Name: "qty", Type: TypeInt},
		{Name: "big", Type: TypeInt},
		{Name: "amt", Type: TypeFloat},
		{Name: "ts", Type: TypeTime},
		{Name: "neg", Type: TypeFloat},
		{Name: "odd", Type: TypeFloat},
		{Name: "nul", Type: TypeFloat},
	})
	l := t.StartLoad()
	dim := l.Column(0).(*StringColumn)
	cat := l.Column(1).(*StringColumn)
	qty := l.Column(2).(*IntColumn)
	big := l.Column(3).(*IntColumn)
	amt := l.Column(4).(*FloatColumn)
	ts := l.Column(5).(*TimeColumn)
	neg := l.Column(6).(*FloatColumn)
	odd := l.Column(7).(*FloatColumn)
	nul := l.Column(8).(*FloatColumn)
	base := time.Date(2014, 9, 1, 0, 0, 0, 0, time.UTC)
	card := 2 + rng.Intn(12)
	nonFinite := rng.Intn(2) == 0
	specials := []float64{
		math.NaN(), math.Float64frombits(0x7FF8000000000002), math.Float64frombits(0xFFF8000000000000),
		math.Inf(1), math.Inf(-1),
	}
	for i := 0; i < rows; i++ {
		if rng.Intn(17) == 0 {
			dim.AppendNull()
		} else {
			dim.AppendString(fmt.Sprintf("d%d", rng.Intn(card)))
		}
		cat.AppendString(fmt.Sprintf("c%d", rng.Intn(3)))
		if rng.Intn(13) == 0 {
			qty.AppendNull()
		} else {
			qty.AppendInt(int64(rng.Intn(41) - 20))
		}
		big.AppendInt(rng.Int63n(1 << 40))
		if rng.Intn(11) == 0 {
			amt.AppendNull()
		} else {
			amt.AppendFloat(rng.NormFloat64() * 50)
		}
		if rng.Intn(19) == 0 {
			ts.AppendNull()
		} else {
			ts.AppendTime(base.Add(time.Duration(rng.Intn(90*24)) * time.Hour))
		}
		neg.AppendFloat(-10 - rng.Float64()*990)
		switch k := rng.Intn(16); {
		case k == 0:
			odd.AppendNull()
		case k == 1:
			odd.AppendFloat(math.Copysign(0, -1))
		case k == 2:
			odd.AppendFloat(0)
		case k == 3 && nonFinite:
			odd.AppendFloat(specials[rng.Intn(len(specials))])
		default:
			odd.AppendFloat(float64(rng.Intn(61)-30) / 10)
		}
		nul.AppendNull()
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	return t
}

// randomKernelPredicate builds a random predicate over buildKernelTable
// columns, spanning every kernel shape: typed compares (including the
// int-column-vs-float-constant conversion), IN lists, null tests, and
// nested boolean combinators.
func randomKernelPredicate(rng *rand.Rand, depth int) Predicate {
	ops := []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	if depth > 0 && rng.Intn(3) == 0 {
		a := randomKernelPredicate(rng, depth-1)
		b := randomKernelPredicate(rng, depth-1)
		switch rng.Intn(3) {
		case 0:
			return And(a, b)
		case 1:
			return Or(a, b)
		default:
			return Not(a)
		}
	}
	switch rng.Intn(8) {
	case 0:
		return Compare("dim", ops[rng.Intn(len(ops))], String(fmt.Sprintf("d%d", rng.Intn(14))))
	case 1:
		return Compare("qty", ops[rng.Intn(len(ops))], Int(int64(rng.Intn(41)-20)))
	case 2:
		return Compare("qty", ops[rng.Intn(len(ops))], Float(float64(rng.Intn(40))-19.5))
	case 3:
		return Compare("amt", ops[rng.Intn(len(ops))], Float(rng.NormFloat64()*40))
	case 4:
		base := time.Date(2014, 9, 1, 0, 0, 0, 0, time.UTC)
		return Compare("ts", ops[rng.Intn(len(ops))], Time(base.Add(time.Duration(rng.Intn(90*24))*time.Hour)))
	case 5:
		vals := []Value{String("d0"), String("d3"), String("nope")}
		p := In("dim", vals...)
		p.Negate = rng.Intn(2) == 0
		return p
	case 6:
		if rng.Intn(2) == 0 {
			return IsNull("amt")
		}
		return IsNotNull("qty")
	default:
		return Compare("big", ops[rng.Intn(len(ops))], Int(rng.Int63n(1<<40)))
	}
}

// randomKernelQuery builds a random query over the table: 0-3 grouping
// columns (hitting the dense fast layout, the two-attribute composite,
// and the generic hash path), random bin widths (float widths include
// ones with no exact binary representation), filtered aggregates — every
// third query a duplicate-aggregate plan, see dupAggs — sampling,
// parallelism, and row ranges. Aggregates over odd meet NaN, ±Inf and
// -0 measures.
func randomKernelQuery(rng *rand.Rand, rows int) *Query {
	q := &Query{Table: "kt", Parallelism: 1 + rng.Intn(4)}
	if rng.Intn(3) > 0 {
		q.Where = randomKernelPredicate(rng, 2)
	}
	groupPool := []string{"dim", "cat", "qty", "big", "ts", "amt", "neg", "odd", "nul"}
	floatWidths := map[string][]float64{
		"amt": {25.5, 0.1, 7.0 / 3},
		"neg": {0.3, 10, 33.3},
		"odd": {0.5, 0.1, 1.0 / 3},
		"nul": {1.5},
	}
	nby := rng.Intn(4)
	perm := rng.Perm(len(groupPool))
	for i := 0; i < nby; i++ {
		q.GroupBy = append(q.GroupBy, groupPool[perm[i]])
	}
	for _, col := range q.GroupBy {
		switch col {
		case "qty":
			if rng.Intn(2) == 0 {
				q.BinWidths = mergeWidths(q.BinWidths, col, float64(1+rng.Intn(7)))
			}
		case "big", "ts":
			// Unbinned big/ts stay viable (generic path); binned widths
			// large enough to land in the dense layout sometimes.
			if rng.Intn(2) == 0 {
				q.BinWidths = mergeWidths(q.BinWidths, col, math.Exp2(float64(30+rng.Intn(10))))
			}
		case "amt", "neg", "odd", "nul":
			if ws := floatWidths[col]; rng.Intn(4) > 0 {
				q.BinWidths = mergeWidths(q.BinWidths, col, ws[rng.Intn(len(ws))])
			}
		}
	}
	aggPool := []AggSpec{
		{Func: AggCount},
		{Func: AggCount, Column: "dim"},
		{Func: AggSum, Column: "amt"},
		{Func: AggAvg, Column: "qty"},
		{Func: AggMin, Column: "amt"},
		{Func: AggMax, Column: "big"},
		{Func: AggStddev, Column: "amt"},
		{Func: AggSum, Column: "qty"},
		{Func: AggMin, Column: "odd"},
		{Func: AggMax, Column: "odd"},
		{Func: AggAvg, Column: "odd"},
		{Func: AggVariance, Column: "odd"},
	}
	if rng.Intn(3) == 0 {
		q.Aggs = dupAggs(rng)
	} else {
		naggs := 1 + rng.Intn(4)
		for i := 0; i < naggs; i++ {
			a := aggPool[rng.Intn(len(aggPool))]
			a.Alias = fmt.Sprintf("a%d", i)
			if rng.Intn(3) == 0 {
				a.Filter = randomKernelPredicate(rng, 1)
			}
			q.Aggs = append(q.Aggs, a)
		}
	}
	if rng.Intn(4) == 0 {
		q.SampleFraction = 0.2 + rng.Float64()*0.6
		q.SampleSeed = rng.Uint64()
	}
	if rng.Intn(5) == 0 && rows > 10 {
		lo := rng.Intn(rows / 2)
		hi := lo + 1 + rng.Intn(rows-lo)
		q.RowLo, q.RowHi = lo, hi
	}
	return q
}

// dupAggs builds the plan shape core emits: several aggregate functions
// of one measure, each unfiltered and under one shared filter — logical
// aggregates that map onto two physical accumulators. Half the plans
// stop at SUM/COUNT/AVG, so a result-only run binds them slim; the rest
// add VAR and MIN, which force the full state. Partial-exporting runs
// bind full either way.
func dupAggs(rng *rand.Rand) []AggSpec {
	col := []string{"amt", "qty", "neg", "odd"}[rng.Intn(4)]
	funcs := []AggFunc{AggSum, AggCount, AggAvg}
	if rng.Intn(2) == 0 {
		funcs = append(funcs, AggVariance, AggMin)
	}
	filter := randomKernelPredicate(rng, 1)
	var aggs []AggSpec
	for _, f := range funcs {
		aggs = append(aggs,
			AggSpec{Func: f, Column: col, Alias: fmt.Sprintf("c%d", len(aggs))},
			AggSpec{Func: f, Column: col, Filter: filter, Alias: fmt.Sprintf("t%d", len(aggs))})
	}
	rng.Shuffle(len(aggs), func(i, j int) { aggs[i], aggs[j] = aggs[j], aggs[i] })
	return aggs
}

func mergeWidths(m map[string]float64, col string, w float64) map[string]float64 {
	if m == nil {
		m = map[string]float64{}
	}
	m[col] = w
	return m
}

// valuesEq compares two Values bit-exactly (NaN-safe, unlike ==).
func valuesEq(a, b Value) bool {
	if a.Kind != b.Kind || a.Null != b.Null {
		return false
	}
	if a.Null {
		return true
	}
	switch a.Kind {
	case TypeFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case TypeString:
		return a.S == b.S
	default:
		return a.I == b.I
	}
}

func resultsEq(a, b *Result) bool {
	if !reflect.DeepEqual(a.Columns, b.Columns) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if !valuesEq(a.Rows[i][j], b.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// runBothScans runs q through the oracle and through the engine's
// paths on fresh executors over the same table (withStore: also over a
// copy that grows by an append between the store's passes), and fails
// the test on any drift. Every random query must be valid: an engine
// error fails.
func runBothScans(t *testing.T, tab *Table, q *Query, withStore bool) {
	t.Helper()
	ctx := context.Background()
	cat := NewCatalog()
	if err := cat.Register(tab); err != nil {
		t.Fatal(err)
	}
	want := oracleRun(tab, q)
	check := func(path string, got *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v\nquery: %+v", path, err, q)
		}
		if !resultsEq(want, got) {
			t.Fatalf("%s differs from the oracle\nquery: %+v\noracle: %+v\ngot:    %+v", path, q, want, got)
		}
	}

	kern := NewExecutor(cat)
	got, err := kern.Run(ctx, q)
	check("direct scan", got, err)
	checkZeroKeySet(t, kern, tab, q, want)
	execs := []*Executor{kern}
	if withStore {
		execs = append(execs, runStoredGrowing(t, tab, q, check))
	}

	// Partials carry exact state, not just finalized values: whole-range
	// partials must be the same bytes at every parallelism and from the
	// store, and finalize to the oracle's answer.
	var wantBytes string
	for _, par := range []int{1, 2, 3} {
		pq := *q
		pq.Parallelism = par
		for _, ex := range execs {
			ps, err := ex.RunPartials(ctx, &pq, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("whole-range partial (parallelism %d)", par), ps[0].Finalize(), nil)
			if got := partialBytes(ps[0]); wantBytes == "" {
				wantBytes = got
			} else if got != wantBytes {
				t.Fatalf("partial state differs at parallelism %d (store %v)\nquery: %+v\nwant: %s\ngot:  %s",
					par, ex != kern, q, wantBytes, got)
			}
		}
	}

	// Split the range at a point on or off the grid, scan the halves
	// separately and merge: the oracle's answer for that cut (on the
	// grid, a cut changes nothing).
	lo, hi := q.RowLo, q.RowHi
	if hi <= 0 {
		lo, hi = 0, tab.NumRows()
	}
	if hi-lo < 2 {
		return
	}
	rng := rand.New(rand.NewSource(int64(lo)<<20 ^ int64(hi)))
	mid := lo + 1 + rng.Intn(hi-lo-1)
	if g := alignToGrid(mid); rng.Intn(2) == 0 && g < hi {
		mid = g
	}
	want = oracleRun(tab, q, mid)
	check(fmt.Sprintf("partials merged at row %d", mid), mergedHalves(t, kern, q, lo, mid, hi), nil)
}

// checkZeroKeySet runs q's aggregates twice in one shared scan — under
// q's keys and under none, the shape of the target count a Recommend's
// first scan carries — and checks the zero-key set binds the dense
// layout and agrees with the oracle and, bit for bit, with the hash
// layout (hashLayoutResults). want is the oracle's answer to q.
func checkZeroKeySet(t *testing.T, ex *Executor, tab *Table, q *Query, want *Result) {
	t.Helper()
	sets := []GroupingSet{{By: q.GroupBy, Aggs: q.Aggs, BinWidths: q.BinWidths}, {Aggs: q.Aggs}}
	layouts, err := ex.Layouts(tab.Name(), sets)
	if err != nil {
		t.Fatal(err)
	}
	if !layouts[1].Dense {
		t.Fatalf("a zero-key set binds the hash layout\nquery: %+v", q)
	}
	got, err := ex.RunSharedScan(context.Background(), q, sets)
	if err != nil {
		t.Fatalf("shared scan with a zero-key set: %v\nquery: %+v", err, q)
	}
	zq := *q
	zq.GroupBy, zq.BinWidths = nil, nil
	for i, want := range []*Result{want, oracleRun(tab, &zq)} {
		if !resultsEq(want, got[i]) {
			t.Fatalf("shared scan with a zero-key set: set %d differs from the oracle\nquery: %+v\noracle: %+v\ngot:    %+v", i, q, want, got[i])
		}
	}
	for i, h := range hashLayoutResults(t, tab, q, sets) {
		if !resultsEq(h, got[i]) {
			t.Fatalf("set %d: dense layout differs from the hash layout\nquery: %+v\nhash:  %+v\ndense: %+v", i, q, h, got[i])
		}
	}
}

// hashLayoutResults scans gsets with every grouper plan forced onto the
// generic hash layout, and finalizes.
func hashLayoutResults(t *testing.T, tab *Table, q *Query, gsets []GroupingSet) []*Result {
	t.Helper()
	cat := NewCatalog()
	if err := cat.Register(tab); err != nil {
		t.Fatal(err)
	}
	s, err := NewExecutor(cat).bindScan(context.Background(), q, gsets, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.t.mu.RUnlock()
	for i, p := range s.plans {
		if p.fast == nil {
			continue
		}
		p.fast, p.fastSlots = nil, 0
		for k, col := range p.keyCols {
			enc, err := newKeyEncoder(col, gsets[i].BinWidths[p.set[k]])
			if err != nil {
				t.Fatal(err)
			}
			p.encs = append(p.encs, enc)
		}
	}
	groupers, err := s.runGroupers(context.Background(), s.plans, s.lo, s.hi)
	if err != nil {
		t.Fatal(err)
	}
	res, err := finalizeGroupers(groupers)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// withScanEdge moves q, half the time, onto an edge of the scan: an
// empty row range (RowLo == RowHi; at the table's end that is on the
// grid for a whole number of cells) or a WHERE no row passes, so every
// chunk arrives all-filtered.
func withScanEdge(rng *rand.Rand, q *Query, rows int) {
	switch rng.Intn(4) {
	case 0:
		at := 1 + rng.Intn(rows) // RowHi 0 would mean the whole table
		q.RowLo, q.RowHi = at, at
	case 1:
		q.Where = Compare("dim", OpEq, String("nope"))
	}
}

// runStoredGrowing runs q on an executor with a partial store whose
// copy of tab arrives in two steps: a cold pass over a prefix (checked
// against the oracle on that prefix), an append of the rest, then two
// warm passes over the whole table — the first grows the cold pass's
// run by the appended cells, the second is served by the grown run.
// It returns the executor, warm, for the caller's partial checks.
func runStoredGrowing(t *testing.T, tab *Table, q *Query, check func(string, *Result, error)) *Executor {
	t.Helper()
	ctx := context.Background()
	n := tab.NumRows()
	prefix := 1 + rand.New(rand.NewSource(int64(n)<<20^int64(q.RowHi))).Intn(n) // == n: nothing to append
	grown, err := tab.ExtractRange(tab.Name(), 0, prefix)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	if err := cat.Register(grown); err != nil {
		t.Fatal(err)
	}
	stored := NewExecutor(cat)
	stored.SetPartialStore(NewPartialStore(0))
	if q.RowLo < prefix {
		cold := *q
		cold.RowHi = min(q.RowHi, prefix) // 0 stays "to the end"
		got, err := stored.Run(ctx, &cold)
		if err != nil {
			t.Fatalf("partial store, cold on %d of %d rows: %v\nquery: %+v", prefix, n, err, cold)
		}
		if want := oracleRun(grown, &cold); !resultsEq(want, got) {
			t.Fatalf("partial store, cold on %d of %d rows, differs from the oracle\nquery: %+v\noracle: %+v\ngot:    %+v", prefix, n, cold, want, got)
		}
	}
	rest := make([][]Value, 0, n-prefix)
	for r := prefix; r < n; r++ {
		rest = append(rest, tab.Row(r))
	}
	if _, err := grown.Append(rest); err != nil {
		t.Fatal(err)
	}
	got, err := stored.Run(ctx, q)
	check(fmt.Sprintf("partial store, after appending rows [%d,%d)", prefix, n), got, err)
	got, err = stored.Run(ctx, q)
	check("partial store, warm", got, err)
	return stored
}

// mergedHalves scans [lo,mid) and [mid,hi) of q separately, merges the
// two partials and finalizes.
func mergedHalves(t *testing.T, ex *Executor, q *Query, lo, mid, hi int) *Result {
	t.Helper()
	left, right := *q, *q
	left.RowLo, left.RowHi, right.RowLo, right.RowHi = lo, mid, mid, hi
	lp, err := ex.RunPartials(context.Background(), &left, nil)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := ex.RunPartials(context.Background(), &right, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lp[0].Merge(rp[0]); err != nil {
		t.Fatal(err)
	}
	return lp[0].Finalize()
}

// partialBytes renders a Partial's state exactly, bit patterns
// throughout: the physical map, then per group the key and every
// physical accumulator's state.
func partialBytes(p *Partial) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%q %q %v %v\n", p.By, p.Cols, p.Funcs, p.Phys)
	exact := func(st ExactState) string {
		return fmt.Sprintf("%v/%d/%x/%x", st.Neg, st.Lo, st.Digits, math.Float64bits(st.Special))
	}
	for _, g := range p.Groups {
		for _, k := range g.Key {
			fmt.Fprintf(&b, "%d/%v/%d/%x/%q ", k.Kind, k.Null, k.I, math.Float64bits(k.F), k.S)
		}
		for _, a := range g.Accs {
			fmt.Fprintf(&b, "[%d %v %x %x %s %s]", a.Count, a.Seen, math.Float64bits(a.Min), math.Float64bits(a.Max), exact(a.Sum), exact(a.SumSq))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestKernelDifferentialProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			rows := 200 + rng.Intn(4000) // straddles 1024-row chunk boundaries
			tab := buildKernelTable(t, rng, rows)
			for i := 0; i < 25; i++ {
				q := randomKernelQuery(rng, rows)
				runBothScans(t, tab, q, i%4 == 0)
				if i%4 == 0 {
					runSplitStates(t, tab, q)
				}
			}
		})
	}
}

// TestKernelDifferentialGridEdges runs the differential at the table
// sizes where chunk bookkeeping can go wrong: one row, one short of a
// grid cell, exactly one cell, one over, and several cells with a
// ragged tail.
func TestKernelDifferentialGridEdges(t *testing.T) {
	for _, rows := range []int{1, 1023, 1024, 1025, 4200} {
		rows := rows
		t.Run(fmt.Sprintf("rows%d", rows), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(1000*int64(rows) + seed))
				tab := buildKernelTable(t, rng, rows)
				for i := 0; i < 30; i++ {
					q := randomKernelQuery(rng, rows)
					runBothScans(t, tab, q, i%3 == 0)
					if i%3 == 0 {
						runSplitStates(t, tab, q)
					}
				}
			}
		})
	}
}

// TestZeroKeySetEdges runs a zero-key grouping set — the target count's
// shape — through every engine path at the table sizes around one grid
// cell: the whole table, empty ranges, a sub-range across the grid, all
// rows filtered by WHERE or by the aggregate's own filter, sampled and
// parallel scans.
func TestZeroKeySetEdges(t *testing.T) {
	aggs := []AggSpec{
		{Func: AggCount, Alias: "n"},
		{Func: AggCount, Filter: Compare("cat", OpEq, String("c1")), Alias: "t"},
		{Func: AggCount, Filter: Compare("dim", OpEq, String("nope")), Alias: "none"},
		{Func: AggSum, Column: "amt", Alias: "s"},
		{Func: AggMin, Column: "odd", Alias: "m"},
	}
	for _, rows := range []int{1023, 1024, 1025} {
		tab := buildKernelTable(t, rand.New(rand.NewSource(int64(rows))), rows)
		shapes := []struct {
			name string
			q    Query
		}{
			{"whole table", Query{}},
			{"empty range", Query{RowLo: ChunkRows / 2, RowHi: ChunkRows / 2}},
			{"empty range at the end", Query{RowLo: rows, RowHi: rows}},
			{"sub-range", Query{RowLo: 1000, RowHi: rows}},
			{"all rows filtered", Query{Where: Compare("dim", OpEq, String("nope"))}},
			{"sampled", Query{SampleFraction: 0.3, SampleSeed: 7}},
			{"parallel", Query{Parallelism: 3}},
		}
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("rows%d/%s", rows, sh.name), func(t *testing.T) {
				q := sh.q
				q.Table, q.Aggs = "kt", aggs
				runBothScans(t, tab, &q, true)
			})
		}
		t.Run(fmt.Sprintf("rows%d/split store states", rows), func(t *testing.T) {
			runSplitStates(t, tab, &Query{Table: "kt", Aggs: aggs})
		})
	}
}

// TestKernelNaNSemantics pins the kernel's NaN comparison behavior to
// the oracle's: a three-way compare treats NaN as "equal" to everything
// (both < and > are false), and the branch-free kernels must reproduce
// that exactly.
func TestKernelNaNSemantics(t *testing.T) {
	tab := MustNewTable("kt", Schema{
		{Name: "dim", Type: TypeString},
		{Name: "amt", Type: TypeFloat},
	})
	nan := math.NaN()
	vals := []float64{1.5, nan, -2, 0, nan, 42, nan, -0.0}
	l := tab.StartLoad()
	dim := l.Column(0).(*StringColumn)
	amt := l.Column(1).(*FloatColumn)
	for i, v := range vals {
		dim.AppendString(fmt.Sprintf("d%d", i%2))
		amt.AppendFloat(v)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, op := range []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		for _, rhs := range []float64{0, 1.5, nan} {
			q := &Query{
				Table:   "kt",
				Where:   Compare("amt", op, Float(rhs)),
				GroupBy: []string{"dim"},
				Aggs:    []AggSpec{{Func: AggCount}, {Func: AggMin, Column: "amt"}},
			}
			runBothScans(t, tab, q, false)
		}
	}
}

// TestMinMaxNaNSticky: one group spanning several grid cells with a
// single NaN measure. MIN and MAX used to adopt a partition's first
// value and then update only on </>, so the NaN won exactly when it
// opened a partition — solo, parallel, split-and-merged and store-served
// scans disagreed. Any NaN in the group must make both NaN, wherever
// the NaN sits relative to a chunk edge and wherever the range is cut.
func TestMinMaxNaNSticky(t *testing.T) {
	const rows = 3*ChunkRows + 100
	ctx := context.Background()
	for _, nanRow := range []int{0, 1, ChunkRows - 1, ChunkRows, ChunkRows + 1, 2*ChunkRows - 1, 2 * ChunkRows, 3 * ChunkRows, rows - 1} {
		tab := MustNewTable("kt", Schema{{Name: "m", Type: TypeFloat}})
		l := tab.StartLoad()
		for i := 0; i < rows; i++ {
			v := float64(i%7) - 3
			if i == nanRow {
				v = math.NaN()
			}
			l.Column(0).(*FloatColumn).AppendFloat(v)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		cat := NewCatalog()
		if err := cat.Register(tab); err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(cat)
		wantNaN := func(path string, res *Result) {
			t.Helper()
			if len(res.Rows) != 1 || !math.IsNaN(res.Rows[0][0].F) || !math.IsNaN(res.Rows[0][1].F) {
				t.Fatalf("NaN at row %d, %s: MIN, MAX = %v, want NaN, NaN", nanRow, path, res.Rows)
			}
		}
		for _, par := range []int{1, 3} {
			q := &Query{Table: "kt", Parallelism: par, Aggs: []AggSpec{{Func: AggMin, Column: "m"}, {Func: AggMax, Column: "m"}}}
			res, err := ex.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			wantNaN(fmt.Sprintf("parallelism %d", par), res)
			for cut := ChunkRows; cut < rows; cut += ChunkRows {
				wantNaN(fmt.Sprintf("parallelism %d, merged at row %d", par, cut), mergedHalves(t, ex, q, 0, cut, rows))
			}
			runBothScans(t, tab, q, true)
		}
	}
}

// TestBindMatchesOracle: Predicate.Bind still evaluates predicates row
// by row for Executor.Scan and for shapes without a compiled kernel, so
// it is held to the oracle's AST walk like the bitmaps are.
func TestBindMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := 100 + rng.Intn(300)
		tab := buildKernelTable(t, rng, rows)
		for i := 0; i < 40; i++ {
			p := randomKernelPredicate(rng, 3)
			bound, err := p.Bind(tab)
			if err != nil {
				t.Fatalf("seed %d: Bind(%s): %v", seed, p, err)
			}
			for row := 0; row < rows; row++ {
				if got, want := bound(row), oracleMatch(tab, p, row); got != want {
					t.Fatalf("seed %d: %s at row %d: Bind says %v, oracle %v", seed, p, row, got, want)
				}
			}
		}
	}
}

// TestKernelChunkStraddlingAppend pins that a table grown by appends
// that straddle chunk boundaries aggregates identically to a cold-built
// copy, and both match the oracle.
func TestKernelChunkStraddlingAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const total = 2600 // crosses the 1024 and 2048 grid boundaries
	cold := buildKernelTable(t, rng, total)

	grown := MustNewTable("kt", cold.Schema())
	cuts := []int{0, 700, 1700, total} // appends of 700/1000/900 rows
	for ci := 0; ci+1 < len(cuts); ci++ {
		lo, hi := cuts[ci], cuts[ci+1]
		rows := make([][]Value, 0, hi-lo)
		for r := lo; r < hi; r++ {
			row := make([]Value, 0, 6)
			for _, def := range cold.Schema() {
				c, err := cold.Column(def.Name)
				if err != nil {
					t.Fatal(err)
				}
				row = append(row, c.Value(r))
			}
			rows = append(rows, row)
		}
		if _, err := grown.Append(rows); err != nil {
			t.Fatal(err)
		}
	}

	qrng := rand.New(rand.NewSource(11))
	for i := 0; i < 15; i++ {
		q := randomKernelQuery(qrng, total)
		runBothScans(t, cold, q, false)
		runBothScans(t, grown, q, i%3 == 0)

		ctx := context.Background()
		catA, catB := NewCatalog(), NewCatalog()
		if err := catA.Register(cold); err != nil {
			t.Fatal(err)
		}
		if err := catB.Register(grown); err != nil {
			t.Fatal(err)
		}
		ra, err := NewExecutor(catA).Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := NewExecutor(catB).Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEq(ra, rb) {
			t.Fatalf("append-grown table differs from cold-built (query %+v)", q)
		}
	}
}

// ---------------------------------------------------------------------
// Satellite regressions

// stubColumn is a Column implementation the engine doesn't know how to
// group by.
type stubColumn struct{ rows int }

func (c stubColumn) Name() string                  { return "weird" }
func (c stubColumn) Type() Type                    { return TypeInt }
func (c stubColumn) Len() int                      { return c.rows }
func (c stubColumn) Value(i int) Value             { return Int(int64(i)) }
func (c stubColumn) IsNull(int) bool               { return false }
func (c stubColumn) Append(Value) error            { return nil }
func (c stubColumn) AppendNull()                   {}
func (c stubColumn) clone(string) Column           { return c }
func (c stubColumn) gather(string, []int32) Column { return c }

// TestGroupByUnknownColumnKindErrors: grouping by a column of unknown
// concrete kind must fail loudly. The old key encoder's silent default
// case encoded zero bytes and materialized NULL, collapsing every row
// into one bogus group.
func TestGroupByUnknownColumnKindErrors(t *testing.T) {
	tab := &Table{
		name:   "stub",
		cols:   []Column{stubColumn{rows: 8}},
		byName: map[string]int{"weird": 0},
		rows:   8,
	}
	_, err := newGrouperPlan(tab, GroupingSet{By: []string{"weird"}, Aggs: []AggSpec{{Func: AggCount}}}, buildFilterSet(nil), false)
	if err == nil {
		t.Fatal("grouping by an unknown column kind succeeded; want error")
	}
	if !strings.Contains(err.Error(), "unsupported column kind") {
		t.Fatalf("unexpected error: %v", err)
	}

	// End to end: the error must surface through Run, not produce a
	// single bogus group.
	cat := NewCatalog()
	if err := cat.Register(tab); err != nil {
		t.Fatal(err)
	}
	_, err = NewExecutor(cat).Run(context.Background(), &Query{
		Table:   "stub",
		GroupBy: []string{"weird"},
		Aggs:    []AggSpec{{Func: AggCount}},
	})
	if err == nil || !strings.Contains(err.Error(), "unsupported column kind") {
		t.Fatalf("Run over unknown column kind: got %v, want unsupported-kind error", err)
	}
}

// TestBindAggsSharesPhysical pins the logical→physical map on the
// plan core emits: 30 aggregates (SUM/COUNT/AVG of five measures,
// unfiltered and filtered) bind 10 physical accumulators over 2 row
// sets, slim when only results are wanted and full when partials are
// exported or one user needs more than a sum.
func TestBindAggsSharesPhysical(t *testing.T) {
	tab := defaultPlanTable(t, 10)
	aggs := defaultPlanSets(Compare("d0", OpEq, String("v3")))[0].Aggs
	bind := func(aggs []AggSpec, resultsOnly bool) ([]boundAgg, []physAgg, []int) {
		t.Helper()
		logical, phys, rowSets, err := bindAggs(tab, aggs, buildFilterSet([]GroupingSet{{Aggs: aggs}}), resultsOnly)
		if err != nil {
			t.Fatal(err)
		}
		return logical, phys, rowSets
	}
	countFull := func(phys []physAgg) (n int) {
		for _, pa := range phys {
			if pa.full {
				n++
			}
		}
		return n
	}

	logical, phys, rowSets := bind(aggs, true)
	if len(logical) != 30 || len(phys) != 10 || len(rowSets) != 2 || countFull(phys) != 0 {
		t.Fatalf("result-only: %d logical, %d physical (%d full), %d row sets; want 30, 10 (0 full), 2",
			len(logical), len(phys), countFull(phys), len(rowSets))
	}
	for i, a := range logical {
		pa := phys[a.phys]
		if got := tab.cols[tab.byName[a.spec.Column]].(*FloatColumn).Floats(); &got[0] != &pa.f64[0] {
			t.Fatalf("aggregate %d (%s) mapped to an accumulator over another column", i, a.spec.Name())
		}
		if filtered := pa.rows != phys[logical[0].phys].rows; filtered != (a.filterIdx >= 0) {
			t.Fatalf("aggregate %d (%s) mapped to an accumulator over the wrong row set", i, a.spec.Name())
		}
	}
	if _, phys, _ := bind(aggs, false); len(phys) != 10 || countFull(phys) != 10 {
		t.Fatalf("partial-exporting: %d physical, %d full; want 10, 10", len(phys), countFull(phys))
	}
	withMin := append(append([]AggSpec(nil), aggs...), AggSpec{Func: AggMin, Column: "m2", Alias: "min"})
	if _, phys, _ := bind(withMin, true); len(phys) != 10 || countFull(phys) != 1 {
		t.Fatalf("with one MIN: %d physical, %d full; want 10, 1", len(phys), countFull(phys))
	}
}

// TestFloatGroupKeysCanonical: floats that print as one key must form
// one group. The float key encoder used to key groups on raw IEEE
// bits, so -0 and +0 (binFloor(-0, w) is -0) headed two groups that
// both print "0", and NaNs split by payload. Checked on the dense
// float layout (finite column) and the hash layout it falls back to
// (NaN in the column, and unbinned), and against the oracle.
func TestFloatGroupKeysCanonical(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name   string
		vals   []float64
		width  float64
		groups int
	}{
		{"binned zeros, dense layout", []float64{negZero, 0, 0.25, negZero, -0.75}, 0.5, 2},
		{"unbinned zeros", []float64{negZero, 0, negZero}, 0, 1},
		{"binned NaN payloads", []float64{math.NaN(), math.Float64frombits(0x7FF8000000000002), math.Float64frombits(0xFFF8000000000001), negZero, 0}, 0.5, 2},
		{"unbinned NaN payloads", []float64{math.NaN(), math.Float64frombits(0x7FF8000000000002), 1}, 0, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := MustNewTable("kt", Schema{{Name: "x", Type: TypeFloat}})
			l := tab.StartLoad()
			for _, v := range tc.vals {
				l.Column(0).(*FloatColumn).AppendFloat(v)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			q := &Query{Table: "kt", GroupBy: []string{"x"}, Aggs: []AggSpec{{Func: AggCount}}}
			if tc.width > 0 {
				q.BinWidths = map[string]float64{"x": tc.width}
			}
			cat := NewCatalog()
			if err := cat.Register(tab); err != nil {
				t.Fatal(err)
			}
			res, err := NewExecutor(cat).Run(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != tc.groups {
				t.Fatalf("%d groups, want %d:\n%s", len(res.Rows), tc.groups, res)
			}
			for _, row := range res.Rows {
				if bits := math.Float64bits(row[0].F); bits != math.Float64bits(canonFloat(row[0].F)) {
					t.Fatalf("group key %v carries non-canonical bits %#x", row[0].F, bits)
				}
			}
			runBothScans(t, tab, q, false)
		})
	}
}

// TestKeyEncoderNullBranchDifferential pins that the bind-time
// null-branch split produces identical key bytes and values on non-null
// rows whether or not the column carries any NULL (the no-null fast
// branch must not change encoding).
func TestKeyEncoderNullBranchDifferential(t *testing.T) {
	vals := []int64{-7, -1, 0, 1, 5, 63, 64, 1023, -1024}
	clean := &IntColumn{name: "v", vals: append([]int64(nil), vals...)}
	dirty := &IntColumn{name: "v", vals: append(append([]int64(nil), vals...), 0)}
	dirty.nulls.set(len(vals)) // one NULL past the shared prefix

	for _, width := range []float64{0, 1, 4, 10} {
		encClean, err := newKeyEncoder(clean, width)
		if err != nil {
			t.Fatal(err)
		}
		encDirty, err := newKeyEncoder(dirty, width)
		if err != nil {
			t.Fatal(err)
		}
		for row := range vals {
			a := encClean.encode(row, nil)
			b := encDirty.encode(row, nil)
			if string(a) != string(b) {
				t.Fatalf("width %v row %d: no-null branch encodes % x, null branch % x", width, row, a, b)
			}
			if va, vb := encClean.value(row), encDirty.value(row); !valuesEq(va, vb) {
				t.Fatalf("width %v row %d: no-null branch value %+v, null branch %+v", width, row, va, vb)
			}
		}
		// And the NULL row itself must encode as NULL.
		if v := encDirty.value(len(vals)); !v.Null {
			t.Fatalf("width %v: NULL row decoded to %+v", width, v)
		}
	}
}

// ---------------------------------------------------------------------
// Bitmap plumbing units

// bitAt tests bit off of a chunk bitmap.
func bitAt(words []uint64, off int32) bool {
	return words[off>>6]>>(uint(off)&63)&1 != 0
}

func TestNullBitmapWordsInto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var nb nullBitmap
	const n = 3000
	ref := make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			nb.set(i)
			ref[i] = true
		}
	}
	out := make([]uint64, kernelWords)
	for _, tc := range [][2]int{{0, 64}, {0, 1}, {1, 63}, {63, 2}, {1000, 1024}, {2047, 130}, {2990, 10}, {999, 1024}} {
		start, cnt := tc[0], tc[1]
		nb.wordsInto(start, cnt, out)
		for j := 0; j < cnt; j++ {
			want := ref[start+j]
			if got := bitAt(out, int32(j)); got != want {
				t.Fatalf("wordsInto(%d,%d) bit %d: got %v want %v", start, cnt, j, got, want)
			}
		}
		// Bits past cnt in the covering words must be zero.
		nw := (cnt + 63) / 64
		for j := cnt; j < nw*64; j++ {
			if bitAt(out, int32(j)) {
				t.Fatalf("wordsInto(%d,%d): stray bit %d set", start, cnt, j)
			}
		}

		// andNotInto must equal out &^= wordsInto.
		full := make([]uint64, kernelWords)
		onesFill(full[:nw], cnt)
		nb.andNotInto(start, cnt, full[:nw])
		for j := 0; j < cnt; j++ {
			if got, want := bitAt(full, int32(j)), !ref[start+j]; got != want {
				t.Fatalf("andNotInto(%d,%d) bit %d: got %v want %v", start, cnt, j, got, want)
			}
		}
	}
}

func TestExtractSel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	words := make([]uint64, kernelWords)
	var want []int32
	for i := 0; i < ChunkRows; i++ {
		if rng.Intn(4) == 0 {
			words[i/64] |= 1 << uint(i%64)
			want = append(want, int32(i))
		}
	}
	got := extractSel(words, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("extractSel: got %v want %v", got, want)
	}
	if got := extractSel(make([]uint64, kernelWords), nil); len(got) != 0 {
		t.Fatalf("extractSel on empty bitmap returned %v", got)
	}
}

// ---------------------------------------------------------------------
// Fuzz: kernel scan vs oracle over fuzzer-chosen shapes. Every plan also
// runs with a zero-key set beside its own (checkZeroKeySet), and a
// quarter of them over an empty range or all-filtered chunks; a third,
// where-free and beside the canary sets, through every state of the
// partial store's split runs (runSplitStates).

func FuzzKernelDifferential(f *testing.F) {
	f.Add(int64(1), uint16(300), int64(2))
	f.Add(int64(2), uint16(1500), int64(9))
	f.Add(int64(3), uint16(2100), int64(40))
	f.Add(int64(99), uint16(17), int64(0))
	for i, rows := range []uint16{0, 1022, 1023, 1024, 4199} { // n = 1, 1023, 1024, 1025, 4200
		f.Add(int64(5+i), rows, int64(3*i))
	}
	f.Fuzz(func(t *testing.T, tableSeed int64, rows uint16, querySeed int64) {
		n := int(rows%4200) + 1
		tab := buildKernelTable(t, rand.New(rand.NewSource(tableSeed)), n)
		qrng := rand.New(rand.NewSource(querySeed))
		q := randomKernelQuery(qrng, n)
		withScanEdge(qrng, q, n)
		runBothScans(t, tab, q, querySeed%3 == 0)
		if querySeed%3 == 0 {
			runSplitStates(t, tab, q)
		}
	})
}
