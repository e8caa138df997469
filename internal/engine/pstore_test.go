package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// appendRows generates deterministic extra rows shaped like
// partialTestTable's data, starting at a given offset so values differ
// from the base load.
func appendRows(n int, seed int64) [][]Value {
	rng := rand.New(rand.NewSource(seed))
	dims := []string{"a", "b", "c", "d", "e"}
	rows := make([][]Value, n)
	for i := range rows {
		m := math.Round(rng.Float64()*20000-10000) / 100
		mv := Float(m)
		if rng.Intn(50) == 0 {
			mv = NullValue(TypeFloat)
		}
		rows[i] = []Value{String(dims[rng.Intn(len(dims))]), Int(int64(rng.Intn(4))), mv}
	}
	return rows
}

// TestIncrementalMatchesColdScan is the tentpole invariant: with a
// partial store installed, a query after any number of appends is
// byte-identical to a cold scan of the full table by an executor with
// no store at all.
func TestIncrementalMatchesColdScan(t *testing.T) {
	ctx := context.Background()
	build := func(withStore bool) (*Executor, *Table) {
		cat := NewCatalog()
		tb := partialTestTable(t, 6_000, 31)
		if err := cat.Register(tb); err != nil {
			t.Fatal(err)
		}
		ex := NewExecutor(cat)
		if withStore {
			ex.SetPartialStore(NewPartialStore(0))
		}
		return ex, tb
	}
	inc, incTb := build(true)
	cold, coldTb := build(false)

	// Prime the store, then append several batches, re-querying after
	// each; the cold executor receives identical appends and rescans.
	if _, err := inc.Run(ctx, partialTestQuery(1)); err != nil {
		t.Fatal(err)
	}
	for i, delta := range []int{1, 500, 1024, 3000} {
		rows := appendRows(delta, int64(100+i))
		if _, err := incTb.Append(rows); err != nil {
			t.Fatal(err)
		}
		if _, err := coldTb.Append(rows); err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			got, err := inc.Run(ctx, partialTestQuery(par))
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.Run(ctx, partialTestQuery(1))
			if err != nil {
				t.Fatal(err)
			}
			if g, w := resultBytes(t, got), resultBytes(t, want); g != w {
				t.Fatalf("delta=%d par=%d: incremental result differs from cold scan:\n%s\nvs\n%s", delta, par, g, w)
			}
		}
	}
	st := inc.PartialStore().Stats()
	if st.Hits == 0 || st.RowsReused == 0 {
		t.Fatalf("expected sealed-chunk reuse, got %+v", st)
	}
}

// partialsFrame renders partials exactly as they cross processes.
func partialsFrame(ps []*Partial) []byte {
	return EncodeFrame("TEST", func(c FrameCodec) {
		for i := range ps {
			c.Partial(&ps[i])
		}
	})
}

// splitStatePlan is the where-free plan runSplitStates drives: q's set,
// a canary set whose measures carry −0/+0, NaN/±Inf (odd) and NULLs
// (amt), a set whose filtered half is empty in every group, a set
// binned at width, and the target count's zero-key set — every filtered
// aggregate under filter (q's own filters under rename(f)).
func splitStatePlan(q *Query, filter Predicate, rename func(Predicate) Predicate, width float64) []GroupingSet {
	aggs := make([]AggSpec, len(q.Aggs))
	for i, a := range q.Aggs {
		if aggs[i] = a; a.Filter != nil {
			aggs[i].Filter = rename(a.Filter)
		}
	}
	nope := Compare("dim", OpEq, String("nope"))
	return []GroupingSet{
		{By: q.GroupBy, Aggs: aggs, BinWidths: q.BinWidths},
		{By: []string{"cat"}, Aggs: []AggSpec{
			{Func: AggMin, Column: "odd", Alias: "c_min"}, {Func: AggMin, Column: "odd", Filter: filter, Alias: "t_min"},
			{Func: AggMax, Column: "odd", Alias: "c_max"}, {Func: AggMax, Column: "odd", Filter: filter, Alias: "t_max"},
			{Func: AggSum, Column: "amt", Alias: "c_sum"}, {Func: AggSum, Column: "amt", Filter: filter, Alias: "t_sum"},
		}},
		{By: []string{"dim"}, Aggs: []AggSpec{
			{Func: AggCount, Column: "amt", Alias: "c_n"}, {Func: AggCount, Column: "amt", Filter: nope, Alias: "t_n"},
		}},
		{By: []string{"neg"}, BinWidths: map[string]float64{"neg": width}, Aggs: []AggSpec{
			{Func: AggAvg, Column: "qty", Alias: "c_avg"}, {Func: AggAvg, Column: "qty", Filter: filter, Alias: "t_avg"},
		}},
		{Aggs: []AggSpec{{Func: AggCount, Filter: filter, Alias: "target_rows"}}},
	}
}

// runSplitStates runs a where-free, unsampled version of q over a
// buildKernelTable table through every state its split runs can be in,
// and checks each answer against a store-free executor over the same
// rows — the partials' frame bytes and their finalized results. The
// states: cold; the predicate-free runs warm (stored by the same plan
// under the complementary filters) with the plan's own run cold; both
// warm; one set binned at another width beside warm runs of the first;
// after an append, the predicate-free runs grown (again by the other
// plan) and the own run stale; and on the warm store a shorter range, a
// moved anchor, and an unaligned head and tail.
func runSplitStates(t *testing.T, tab *Table, q *Query) {
	t.Helper()
	ctx := context.Background()
	n := tab.NumRows()
	prefix := max(1, n/2, n-ChunkRows-7)
	grown, err := tab.ExtractRange(tab.Name(), 0, prefix)
	if err != nil {
		t.Fatal(err)
	}
	stored, cold := storeFixture(t, grown)

	// The target filter is q's first (the empty one when q has none);
	// the other plan complements every filter, so it shares nothing but
	// the predicate-free runs.
	var filter Predicate = Compare("dim", OpEq, String("nope"))
	for _, a := range q.Aggs {
		if a.Filter != nil {
			filter = a.Filter
			break
		}
	}
	same := func(p Predicate) Predicate { return p }
	negated := map[Predicate]Predicate{}
	negate := func(p Predicate) Predicate {
		if _, ok := negated[p]; !ok {
			negated[p] = Not(p)
		}
		return negated[p]
	}
	mine := splitStatePlan(q, filter, same, 10)
	other := splitStatePlan(q, negate(filter), negate, 10)

	check := func(state string, lo, hi int, sets []GroupingSet) {
		t.Helper()
		sq := &Query{Table: tab.Name(), RowLo: lo, RowHi: hi, Parallelism: q.Parallelism}
		got, err := stored.RunPartials(ctx, sq, sets)
		if err != nil {
			t.Fatalf("%s: %v\nquery: %+v", state, err, q)
		}
		want, err := cold.RunPartials(ctx, sq, sets)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(partialsFrame(got), partialsFrame(want)) {
			for i := range got {
				if g, w := partialBytes(got[i]), partialBytes(want[i]); g != w {
					t.Fatalf("%s, rows [%d,%d): set %d's partial differs from the store-free one\nquery: %+v\nwant: %s\ngot:  %s", state, lo, hi, i, q, w, g)
				}
			}
			t.Fatalf("%s, rows [%d,%d): partial frames differ from the store-free ones\nquery: %+v", state, lo, hi, q)
		}
		res, err := cold.RunSharedScan(ctx, sq, sets)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if f := got[i].Finalize(); !resultsEq(res[i], f) {
				t.Fatalf("%s, rows [%d,%d): set %d finalizes differently from a store-free scan\nquery: %+v\nwant: %+v\ngot:  %+v", state, lo, hi, i, q, res[i], f)
			}
		}
	}
	check("cold", 0, 0, mine)
	check("predicate-free runs warm, own run cold", 0, 0, other)
	check("both warm", 0, 0, mine)
	check("another bin width", 0, 0, splitStatePlan(q, filter, same, 33.3))
	rest := make([][]Value, 0, n-prefix)
	for r := prefix; r < n; r++ {
		rest = append(rest, tab.Row(r))
	}
	if _, err := grown.Append(rest); err != nil {
		t.Fatal(err)
	}
	check("after an append, every run behind by the same cells", 0, 0, other)
	check("after an append, predicate-free runs grown, own run stale", 0, 0, mine)
	check("shorter range", 0, max(1, n-ChunkRows-ChunkRows/2), mine)
	check("moved anchor", min(ChunkRows, n), n, mine)
	check("unaligned head and tail", min(100, n), max(min(100, n), n-100), mine)
}

// TestNeverSeenPredicateReusesReference is what the split buys
// exploration: the default plan (and its target count) under 50
// distinct FILTER-form predicates on different columns. After the first,
// every predicate hits every predicate-free run, scans none of the rows
// those runs cover, stores exactly one run — its own — and answers byte
// for byte what a store-free executor answers.
func TestNeverSeenPredicateReusesReference(t *testing.T) {
	const rows = 20 * ChunkRows // whole cells: nothing to scan around the runs
	ctx := context.Background()
	ex, cold := storeFixture(t, defaultPlanTable(t, rows))
	q := &Query{Table: "events", Parallelism: 2}
	for i := 0; i < 50; i++ {
		var pred Predicate
		if c := i % 15; c < 10 {
			pred = Compare(fmt.Sprintf("d%d", c), OpEq, String(fmt.Sprintf("v%d", i/15)))
		} else {
			pred = Compare(fmt.Sprintf("m%d", c-10), OpGt, Float(float64(110+5*(i/15))))
		}
		sets := append(defaultPlanSets(pred), countedSet(pred))
		before := ex.PartialStore().Stats()
		s, err := ex.bindScan(ctx, q, sets, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.partials(ctx)
		s.t.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		if keyed := len(sets) - 1; len(s.zips) != len(sets) || len(s.parts) != keyed+1 {
			t.Fatalf("predicate %d: %d runs for %d keyed sets, want one predicate-free run each plus one", i, len(s.parts), keyed)
		}

		want, err := cold.RunPartials(ctx, q, sets)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(partialsFrame(got), partialsFrame(want)) {
			t.Fatalf("predicate %d (%s): partial frames differ from a store-free executor's", i, pred)
		}
		res, err := cold.RunSharedScan(ctx, q, sets)
		if err != nil {
			t.Fatal(err)
		}
		for j := range res {
			if !resultsEq(res[j], got[j].Finalize()) {
				t.Fatalf("predicate %d (%s): set %d differs from a store-free executor's", i, pred, j)
			}
		}

		st := ex.PartialStore().Stats()
		refs := int64(len(s.parts) - 1)
		if i == 0 {
			if st.Misses != refs+1 || st.Entries != int(refs)+1 {
				t.Fatalf("first predicate: want %d runs from %d misses, got %+v", refs+1, refs+1, st)
			}
			continue
		}
		if hits := st.Hits - before.Hits; hits != refs {
			t.Fatalf("predicate %d (%s): hit %d of %d predicate-free runs (%+v)", i, pred, hits, refs, st)
		}
		for _, p := range s.parts[:refs] {
			if p.from != s.ahi || s.lo != s.a || s.hi != s.ahi {
				t.Fatalf("predicate %d (%s): a predicate-free run was fed rows [%d,%d)", i, pred, p.from, s.ahi)
			}
		}
		if scanned := st.RowsScanned - before.RowsScanned; scanned != rows {
			t.Fatalf("predicate %d (%s): scanned %d rows, want one pass over %d", i, pred, scanned, rows)
		}
		if st.Misses != before.Misses+1 || st.Entries != before.Entries+1 {
			t.Fatalf("predicate %d (%s): want one new run from one missed lookup, got %+v after %+v", i, pred, st, before)
		}
	}
}

// TestIncrementalScansOnlyDelta pins the O(delta) property: after the
// store is primed, a query following an append reads only the tail and
// the appended rows — not the table.
func TestIncrementalScansOnlyDelta(t *testing.T) {
	ctx := context.Background()
	cat := NewCatalog()
	tb := partialTestTable(t, 50_000, 7)
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cat)
	ex.SetPartialStore(NewPartialStore(0))
	if _, err := ex.Run(ctx, partialTestQuery(1)); err != nil {
		t.Fatal(err)
	}

	const delta = 700
	if _, err := tb.Append(appendRows(delta, 9)); err != nil {
		t.Fatal(err)
	}
	_, _, rowsBefore := ex.Stats().Snapshot()
	if _, err := ex.Run(ctx, partialTestQuery(1)); err != nil {
		t.Fatal(err)
	}
	_, _, rowsAfter := ex.Stats().Snapshot()
	scanned := rowsAfter - rowsBefore
	// The rescan is bounded by the delta plus the unsealed tail chunk.
	if maxScan := int64(delta + ChunkRows); scanned > maxScan {
		t.Fatalf("query after %d-row append scanned %d rows, want <= %d", delta, scanned, maxScan)
	}
	if scanned < delta {
		t.Fatalf("query after %d-row append scanned only %d rows", delta, scanned)
	}
	st := ex.PartialStore().Stats()
	if ratio := st.ReuseRatio(); ratio < 0.4 {
		t.Fatalf("expected substantial reuse after append, got ratio %.2f (%+v)", ratio, st)
	}
}

// storeFixture registers tables in a fresh catalog and returns an
// executor with a default-budget partial store beside a store-free one
// over the same catalog.
func storeFixture(t *testing.T, tables ...*Table) (stored, cold *Executor) {
	t.Helper()
	cat := NewCatalog()
	for _, tb := range tables {
		if err := cat.Register(tb); err != nil {
			t.Fatal(err)
		}
	}
	stored = NewExecutor(cat)
	stored.SetPartialStore(NewPartialStore(0))
	return stored, NewExecutor(cat)
}

// mustRun runs q and returns the result's exact bytes.
func mustRun(t *testing.T, ex *Executor, q *Query) string {
	t.Helper()
	res, err := ex.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return resultBytes(t, res)
}

// partialTestRuns is how many runs partialTestQuery keeps: it has no
// WHERE, so its one set splits into its predicate-free accumulators
// (COUNT(*) and m) and the rest (the FILTER aggregate), one run each.
const partialTestRuns = 2

// rangeQuery is partialTestQuery(1) on table over rows [lo,hi).
func rangeQuery(table string, lo, hi int) *Query {
	q := partialTestQuery(1)
	q.Table, q.RowLo, q.RowHi = table, lo, hi
	return q
}

// TestNeverSeenPlanStoresOneRun is what exploration pays: every
// never-seen predicate on 100k rows stores exactly one run — about one
// whole-range partial, whatever the row count — and 50 of them fit the
// default budget without a single eviction.
func TestNeverSeenPlanStoresOneRun(t *testing.T) {
	tb := partialTestTable(t, 100_000, 17)
	ex, cold := storeFixture(t, tb)
	whole, err := cold.RunPartials(context.Background(), partialTestQuery(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	maxRun := 2 * (partialsSize(whole) + runOverhead + 128)
	for i := 0; i < 50; i++ {
		q := partialTestQuery(1 + i%3)
		q.Where = Compare("m", OpGt, Float(float64(i-25)))
		before := ex.PartialStore().Stats()
		if got, want := mustRun(t, ex, q), mustRun(t, cold, q); got != want {
			t.Fatalf("predicate %d: stored scan differs from cold scan", i)
		}
		st := ex.PartialStore().Stats()
		if st.Entries != before.Entries+1 || st.Misses != before.Misses+1 || st.Hits != before.Hits {
			t.Fatalf("predicate %d: want one new run from one missed lookup, got %+v after %+v", i, st, before)
		}
		if grew := st.Bytes - before.Bytes; grew > maxRun {
			t.Fatalf("predicate %d: run charged %d bytes, want <= %d (2x a whole-range partial)", i, grew, maxRun)
		}
	}
	st := ex.PartialStore().Stats()
	if st.Evictions != 0 || st.Entries != 50 {
		t.Fatalf("50 distinct predicates: want 50 runs and no evictions, got %+v", st)
	}
	t.Logf("%d bytes per run (%d groups of %d aggregates)", st.Bytes/int64(st.Entries), len(whole[0].Groups), len(whole[0].Cols))
}

// TestIncrementalRowRanges: explicit RowLo/RowHi ranges (the cluster's
// scatter unit) each keep their own runs at their own anchor — on or
// off the grid — so repeating a split reuses every range's sealed body,
// and the merged partials equal the cold whole-table scan.
func TestIncrementalRowRanges(t *testing.T) {
	ctx := context.Background()
	tb := partialTestTable(t, 10_000, 3)
	ex, cold := storeFixture(t, tb)
	want := mustRun(t, cold, partialTestQuery(1))
	splits := [][][2]int{
		ShardRanges(tb.NumRows(), 0, 0, 3),
		{{0, 1500}, {1500, 6000}, {6000, 10_000}}, // cuts off the grid: heads and tails
	}
	for _, ranges := range splits {
		ex.PartialStore().Purge() // the splits share anchors; each starts cold
		for pass := 0; pass < 2; pass++ {
			before := ex.PartialStore().Stats()
			var parts [][]*Partial
			for _, rg := range ranges {
				ps, err := ex.RunPartials(ctx, rangeQuery("pt", rg[0], rg[1]), nil)
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, ps)
			}
			if ranges[0][1]%ChunkRows == 0 { // off-grid cuts change float sums, by design
				merged, err := MergePartials(parts)
				if err != nil {
					t.Fatal(err)
				}
				if got := resultBytes(t, merged[0].Finalize()); got != want {
					t.Fatalf("ranges %v pass %d: merged partials differ from cold scan", ranges, pass)
				}
			}
			for i, rg := range ranges {
				if got, w := resultBytes(t, parts[i][0].Finalize()), mustRun(t, cold, rangeQuery("pt", rg[0], rg[1])); got != w {
					t.Fatalf("range %v pass %d: stored scan differs from cold scan", rg, pass)
				}
			}
			st := ex.PartialStore().Stats()
			if hits := st.Hits - before.Hits; pass == 1 && hits != int64(partialTestRuns*len(ranges)) {
				t.Fatalf("ranges %v: repeat should hit every run of every range, got %d hits (%+v)", ranges, hits, st)
			}
		}
	}
}

// TestShorterRangeAndMovedAnchorRescan writes down what runs give up: a
// range that ends before the stored runs do, or whose first sealed cell
// is not the runs' anchor, reuses nothing — and returns the same bytes
// as a cold scan, from one pass over the range. The longer runs survive
// the shorter query.
func TestShorterRangeAndMovedAnchorRescan(t *testing.T) {
	tb := partialTestTable(t, 9_000, 21)
	ex, cold := storeFixture(t, tb)
	mustRun(t, ex, rangeQuery("pt", 0, 9_000)) // run: 8 cells at anchor 0
	for _, rg := range [][2]int{{0, 5_000}, {1_024, 9_000}, {2_100, 9_000}} {
		before := ex.PartialStore().Stats()
		q := rangeQuery("pt", rg[0], rg[1])
		if got, want := mustRun(t, ex, q), mustRun(t, cold, q); got != want {
			t.Fatalf("range %v: stored scan differs from cold scan", rg)
		}
		st := ex.PartialStore().Stats()
		if st.Hits != before.Hits || st.RowsReused != before.RowsReused {
			t.Fatalf("range %v: expected a rescan, got reuse (%+v after %+v)", rg, st, before)
		}
		if scanned := st.RowsScanned - before.RowsScanned; scanned != int64(rg[1]-rg[0]) {
			t.Fatalf("range %v: scanned %d rows, want the whole range", rg, scanned)
		}
	}
	before := ex.PartialStore().Stats()
	mustRun(t, ex, rangeQuery("pt", 0, 9_000))
	if st := ex.PartialStore().Stats(); st.RowsReused-before.RowsReused != partialTestRuns*8*ChunkRows {
		t.Fatalf("the whole-range runs should have survived the shorter query: %+v after %+v", st, before)
	}
	// The shorter range kept its runs in the anchor's second slot: a
	// repeat reuses them beside the longer ones.
	before = ex.PartialStore().Stats()
	mustRun(t, ex, rangeQuery("pt", 0, 5_000))
	if st := ex.PartialStore().Stats(); st.RowsReused-before.RowsReused != partialTestRuns*4*ChunkRows {
		t.Fatalf("the shorter range should reuse its own runs on repeat: %+v after %+v", st, before)
	}
}

// TestRunsAreContentAddressed: the run key carries the anchor cell's
// content hash, so two tables — or two placed fragments of one table —
// answering the same plan over different data each keep their run; and
// a run is validated by every cell it covers, so a table that merely
// shares the anchor cell with another never reuses the other's state.
func TestRunsAreContentAddressed(t *testing.T) {
	whole := partialTestTable(t, 3*4096, 77)
	var frags []*Table
	for i := 0; i < 3; i++ {
		f, err := whole.ExtractRange(fmt.Sprintf("pt__p%d", i), i*4096, (i+1)*4096)
		if err != nil {
			t.Fatal(err)
		}
		frags = append(frags, f)
	}
	// twin shares fragment 0's first cell and nothing after it.
	twin, err := whole.ExtractRange("twin", 0, ChunkRows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := twin.Append(appendRows(3*ChunkRows, 5)); err != nil {
		t.Fatal(err)
	}
	ex, cold := storeFixture(t, append(frags, twin)...)
	for pass := 0; pass < 2; pass++ {
		for _, f := range frags {
			q := rangeQuery(f.Name(), 0, 0)
			if got, want := mustRun(t, ex, q), mustRun(t, cold, q); got != want {
				t.Fatalf("%s pass %d: stored scan differs from cold scan", f.Name(), pass)
			}
		}
	}
	const runs = 3 * partialTestRuns
	if st := ex.PartialStore().Stats(); st.Entries != runs || st.Hits != runs || st.Misses != runs || st.Evictions != 0 {
		t.Fatalf("three fragments, two passes: want %d runs, %d misses then %d hits, got %+v", runs, runs, runs, st)
	}
	for _, name := range []string{"twin", "pt__p0", "twin"} {
		before := ex.PartialStore().Stats()
		q := rangeQuery(name, 0, 0)
		if got, want := mustRun(t, ex, q), mustRun(t, cold, q); got != want {
			t.Fatalf("%s: a run built over another table's cells leaked into the answer", name)
		}
		if st := ex.PartialStore().Stats(); st.Hits != before.Hits || st.Entries != runs {
			t.Fatalf("%s: same anchor cell, different runs: want misses that replace the entries, got %+v after %+v", name, st, before)
		}
	}
}

// TestReturnedPartialIsCallerOwned: callers fold other partitions INTO
// what RunPartials returns (the cluster gather does), so nothing
// returned may alias the stored run — on a miss, a hit or a grown run.
func TestReturnedPartialIsCallerOwned(t *testing.T) {
	ctx := context.Background()
	tb := partialTestTable(t, 5*ChunkRows, 9) // no tail: the answer IS the run
	ex, cold := storeFixture(t, tb)
	other, err := cold.RunPartials(ctx, rangeQuery("pt", 0, 700), nil)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		if pass == 2 {
			if _, err := tb.Append(appendRows(ChunkRows, 3)); err != nil {
				t.Fatal(err)
			}
		}
		want := mustRun(t, cold, partialTestQuery(1))
		ps, err := ex.RunPartials(ctx, partialTestQuery(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultBytes(t, ps[0].Finalize()); got != want {
			t.Fatalf("pass %d: stored scan differs from cold scan", pass)
		}
		// Deface the returned partial every way a caller can.
		if err := ps[0].Merge(other[0]); err != nil {
			t.Fatal(err)
		}
		for g := range ps[0].Groups {
			for a := range ps[0].Groups[g].Accs {
				acc := &ps[0].Groups[g].Accs[a]
				acc.Count = -1
				for d := range acc.Sum.Digits {
					acc.Sum.Digits[d] = 0xDEAD
				}
			}
		}
		if got := mustRun(t, ex, partialTestQuery(1)); got != want {
			t.Fatalf("pass %d: mutating a returned partial changed the next answer", pass)
		}
	}
}

// TestPartialStoreEviction: the byte budget holds and evictions are
// counted; queries stay correct when their run was evicted.
func TestPartialStoreEviction(t *testing.T) {
	tb := partialTestTable(t, 12_000, 5)
	ex, cold := storeFixture(t, tb)
	const budget = 16 << 10 // a couple of runs
	store := NewPartialStore(budget)
	ex.SetPartialStore(store)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 8; i++ {
			q := partialTestQuery(1)
			q.Where = Compare("g", OpNe, Int(int64(i)))
			if got, want := mustRun(t, ex, q), mustRun(t, cold, q); got != want {
				t.Fatalf("pass %d predicate %d: evicting store changed result bytes", pass, i)
			}
		}
	}
	st := store.Stats()
	if st.Evictions == 0 || st.Entries >= 8 {
		t.Fatalf("tiny budget should evict, got %+v", st)
	}
	if st.Bytes > budget {
		t.Fatalf("store is over its budget with more than one entry: %+v", st)
	}
}

// TestPartialStoreAccounting pins the budget charge two ways: the size
// constants are the structs' real sizes, and the bytes charged for a run
// are within 25% of the heap the run actually holds — for a freshly
// exported run and for one grown by a merge after an append (one state
// per physical accumulator, digit slices at their length in both).
func TestPartialStoreAccounting(t *testing.T) {
	for name, c := range map[string][2]uintptr{
		"Partial":      {partialSize, unsafe.Sizeof(Partial{})},
		"PartialGroup": {groupSize, unsafe.Sizeof(PartialGroup{})},
		"Value":        {valueSize, unsafe.Sizeof(Value{})},
		"AccState":     {accSize, unsafe.Sizeof(AccState{})},
	} {
		if c[0] != c[1] {
			t.Errorf("store charges %d bytes per %s, unsafe.Sizeof says %d", c[0], name, c[1])
		}
	}

	const rows, keys = 40 * ChunkRows, 4000
	tb := MustNewTable("acct", Schema{{Name: "k", Type: TypeInt}, {Name: "m", Type: TypeFloat}})
	rng := rand.New(rand.NewSource(1))
	mkRows := func(n int) [][]Value {
		out := make([][]Value, n)
		for i := range out {
			out[i] = []Value{Int(int64(rng.Intn(keys))), Float(math.Round(rng.Float64()*1e6) / 100)}
		}
		return out
	}
	if _, err := tb.Append(mkRows(rows)); err != nil {
		t.Fatal(err)
	}
	ex, _ := storeFixture(t, tb)
	query := func(where Predicate) *Query {
		q := partialTestQuery(1)
		q.Table, q.GroupBy, q.Where = "acct", []string{"k"}, where
		q.Aggs = q.Aggs[:7] // the unfiltered aggregates of m
		return q
	}
	run := func(q *Query) {
		t.Helper()
		if _, err := ex.Run(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	// Warm everything a first scan memoizes on the table (chunk hashes,
	// column ranges) so the window below holds the run and nothing else.
	run(query(Compare("m", OpGe, Float(0))))
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	check := func(what string, queries ...*Query) {
		t.Helper()
		ex.PartialStore().Purge()
		heapBefore := heap()
		for _, q := range queries {
			run(q)
		}
		measured, accounted := heap()-heapBefore, ex.PartialStore().Stats().Bytes
		if measured < 1<<20 {
			t.Skipf("%s: heap grew only %d bytes (GC interference); nothing to pin", what, measured)
		}
		ratio := float64(accounted) / float64(measured)
		t.Logf("%s: charged %d bytes, heap grew %d (ratio %.2f)", what, accounted, measured, ratio)
		if ratio < 0.75 || ratio > 1.25 {
			t.Fatalf("%s: store charged %d bytes, the heap grew %d (ratio %.2f, want within 25%%)", what, accounted, measured, ratio)
		}
	}
	check("fresh run", query(nil))
	if _, err := tb.Append(mkRows(3 * ChunkRows)); err != nil {
		t.Fatal(err)
	}
	run(query(Compare("m", OpGe, Float(0)))) // warm the new cells' hashes
	short := query(nil)
	short.RowHi = rows
	check("grown run", short, query(nil))
}

// TestPartialStoreConcurrentGrowth: readers of one plan race an
// appender; every answer must equal a cold scan of SOME prefix the
// table went through, and the final one the whole table's. Run under
// -race in CI.
func TestPartialStoreConcurrentGrowth(t *testing.T) {
	tb := partialTestTable(t, 4_000, 41)
	ex, cold := storeFixture(t, tb)
	const batches, batch = 12, 700
	valid := map[string]bool{mustRun(t, cold, partialTestQuery(1)): true}
	var mu sync.Mutex // guards valid
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(par int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := ex.Run(context.Background(), partialTestQuery(par))
				if err != nil {
					t.Error(err)
					return
				}
				got := resultBytes(t, res)
				mu.Lock()
				ok := valid[got]
				mu.Unlock()
				if !ok {
					t.Error("a concurrent stored scan matched no prefix of the table")
					return
				}
			}
		}(1 + r%2)
	}
	for b := 0; b < batches; b++ {
		// Publish the next prefix's answer before the rows become visible.
		next := tb.Clone("pt")
		rows := appendRows(batch, int64(b))
		if _, err := next.Append(rows); err != nil {
			t.Fatal(err)
		}
		nextCat := NewCatalog()
		if err := nextCat.Register(next); err != nil {
			t.Fatal(err)
		}
		want := mustRun(t, NewExecutor(nextCat), partialTestQuery(1))
		mu.Lock()
		valid[want] = true
		mu.Unlock()
		if _, err := tb.Append(rows); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got, want := mustRun(t, ex, partialTestQuery(1)), mustRun(t, cold, partialTestQuery(1)); got != want {
		t.Fatal("after the appends the stored scan differs from a cold scan")
	}
	if st := ex.PartialStore().Stats(); st.Hits == 0 || st.Entries != partialTestRuns {
		t.Fatalf("one plan, one table: want %d runs and some reuse, got %+v", partialTestRuns, st)
	}
}

// TestIncrementalSampledAndFiltered: sampling and per-aggregate filters
// are part of the plan signature, so differently-parameterized queries
// never share a run — and each stays byte-identical to its own cold
// scan.
func TestIncrementalSampledAndFiltered(t *testing.T) {
	ctx := context.Background()
	cat := NewCatalog()
	tb := partialTestTable(t, 8_000, 13)
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	cold := NewExecutor(cat)
	ex := NewExecutor(cat)
	ex.SetPartialStore(NewPartialStore(0))

	mk := func(frac float64, seed uint64) *Query {
		q := partialTestQuery(1)
		q.SampleFraction = frac
		q.SampleSeed = seed
		return q
	}
	for _, q := range []*Query{mk(0, 0), mk(0.5, 1), mk(0.5, 2), mk(0.25, 1)} {
		want, err := cold.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		// Twice: cold-miss pass, then fully-cached pass.
		for i := 0; i < 2; i++ {
			got, err := ex.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := resultBytes(t, got), resultBytes(t, want); g != w {
				t.Fatalf("sample=%g seed=%d pass=%d: incremental differs from cold", q.SampleFraction, q.SampleSeed, i)
			}
		}
	}
}

// TestAppendValidation: a bad batch rolls back atomically and keeps the
// table rectangular and version-stable.
func TestAppendValidation(t *testing.T) {
	tb := MustNewTable("t", Schema{
		{Name: "d", Type: TypeString},
		{Name: "m", Type: TypeFloat},
	})
	if _, err := tb.Append([][]Value{{String("x"), Float(1)}, {String("y"), Float(2)}}); err != nil {
		t.Fatal(err)
	}
	fp := tb.Fingerprint()
	// Wrong arity.
	if _, err := tb.Append([][]Value{{String("z")}}); err == nil {
		t.Fatal("expected arity error")
	}
	// Wrong type in the second row of a batch: the whole batch must
	// roll back, including the valid first row.
	if _, err := tb.Append([][]Value{{String("ok"), Float(3)}, {String("bad"), String("nope")}}); err == nil {
		t.Fatal("expected type error")
	}
	if tb.NumRows() != 2 {
		t.Fatalf("failed appends must roll back: %d rows", tb.NumRows())
	}
	if tb.Fingerprint() != fp {
		t.Fatalf("failed appends must not bump the version")
	}
	for _, c := range []string{"d", "m"} {
		col, err := tb.Column(c)
		if err != nil {
			t.Fatal(err)
		}
		if col.Len() != 2 {
			t.Fatalf("column %q has %d rows after rollback", c, col.Len())
		}
	}
	// An empty batch is a no-op.
	if n, err := tb.Append(nil); err != nil || n != 2 {
		t.Fatalf("empty append: n=%d err=%v", n, err)
	}
	if tb.Fingerprint() != fp {
		t.Fatalf("empty append must not bump the version")
	}
}

// TestChunkHashStableAcrossAppends: sealed-cell hashes never change
// once computed, and identically-loaded tables agree on them — the
// content-addressing property the store is built on.
func TestChunkHashStableAcrossAppends(t *testing.T) {
	a := partialTestTable(t, 3_000, 55)
	b := partialTestTable(t, 3_000, 55)
	a.mu.RLock()
	h0 := a.chunkHashLocked(0)
	h1 := a.chunkHashLocked(1)
	a.mu.RUnlock()
	if _, err := a.Append(appendRows(2_500, 4)); err != nil {
		t.Fatal(err)
	}
	a.mu.RLock()
	h0after, h1after := a.chunkHashLocked(0), a.chunkHashLocked(1)
	a.mu.RUnlock()
	if h0 != h0after || h1 != h1after {
		t.Fatal("sealed chunk hashes changed across an append")
	}
	b.mu.RLock()
	b0, b1 := b.chunkHashLocked(0), b.chunkHashLocked(1)
	b.mu.RUnlock()
	if b0 != h0 || b1 != h1 {
		t.Fatal("identically-loaded tables disagree on chunk hashes")
	}
	if h0 == h1 {
		t.Fatal("distinct chunks should hash differently")
	}
	if a.SealedChunks() != 5500/ChunkRows {
		t.Fatalf("SealedChunks=%d, want %d", a.SealedChunks(), 5500/ChunkRows)
	}
}
