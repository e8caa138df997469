package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"seedb/internal/engine"
)

// columnStatsEqual holds two ColumnStats to bit-level equality on every
// field: the collector continues, over equal integer counts, the float
// passes a cold collection runs, so results must be identical, not
// merely close. TopValues are compared when top is set.
func columnStatsEqual(got, want *ColumnStats, top bool) error {
	bits := math.Float64bits
	if got.Name != want.Name || got.Type != want.Type || got.Rows != want.Rows ||
		got.Nulls != want.Nulls || got.Distinct != want.Distinct ||
		bits(got.Min) != bits(want.Min) || bits(got.Max) != bits(want.Max) ||
		bits(got.Entropy) != bits(want.Entropy) || bits(got.NormEntropy) != bits(want.NormEntropy) {
		return fmt.Errorf("column %q:\n got %+v\nwant %+v", want.Name, got, want)
	}
	if top && fmt.Sprint(got.TopValues) != fmt.Sprint(want.TopValues) {
		return fmt.Errorf("column %q top values:\n got %v\nwant %v", want.Name, got.TopValues, want.TopValues)
	}
	return nil
}

func tableStatsEqual(got, want *TableStats, top bool) error {
	if got.Table != want.Table || got.Rows != want.Rows || len(got.Columns) != len(want.Columns) {
		return fmt.Errorf("shape: got %q %d rows %d cols, want %q %d rows %d cols",
			got.Table, got.Rows, len(got.Columns), want.Table, want.Rows, len(want.Columns))
	}
	for name, w := range want.Columns {
		g, ok := got.Columns[name]
		if !ok {
			return fmt.Errorf("column %q missing", name)
		}
		if err := columnStatsEqual(g, w, top); err != nil {
			return err
		}
	}
	return nil
}

var clusterThresholds = []float64{0.5, 0.95, 1}

// checkAgainstOracle holds everything the collector serves for the
// table as it stands — Stats, Describe, every pair's Cramér's V and the
// clusterings of cols — to the oracle's answer over the same rows.
func checkAgainstOracle(c *Collector, tb *engine.Table, cols []string) error {
	want := oracleCollect(tb, tb.NumRows())
	if err := tableStatsEqual(c.Stats(tb), want, false); err != nil {
		return fmt.Errorf("Stats: %w", err)
	}
	if err := tableStatsEqual(c.Describe(tb), want, true); err != nil {
		return fmt.Errorf("Describe: %w", err)
	}
	for _, th := range clusterThresholds {
		got, err := c.CorrelationClusters(tb, cols, th)
		if err != nil {
			return err
		}
		want, err := oracleClusters(tb, cols, th)
		if err != nil {
			return err
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("clusters of %v at %v:\n got %v\nwant %v", cols, th, got, want)
		}
	}
	schema, st := tb.Schema(), c.stateFor(tb)
	for a, ca := range cols {
		for _, cb := range cols[a+1:] {
			want, err := oracleCramersV(tb, ca, cb)
			if err != nil {
				return err
			}
			got := st.pairs[[2]int{schema.ColumnIndex(ca), schema.ColumnIndex(cb)}].v
			if math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("V(%s,%s) = %v, want %v", ca, cb, got, want)
			}
		}
	}
	return nil
}

// runDifferential appends rows to a fresh table in the batches that
// cuts (ascending row counts) delimit, asks one collector at every cut,
// and holds each answer to the oracle; at the end a cold collector must
// agree with the extended one too. cols are the attributes to cluster.
func runDifferential(schema engine.Schema, rows [][]engine.Value, cuts []int, cols []string) error {
	tb, err := engine.NewTable("d", schema)
	if err != nil {
		return err
	}
	c := NewCollector()
	done := 0
	for _, cut := range append(cuts, len(rows)) {
		if _, err := tb.Append(rows[done:cut]); err != nil {
			return err
		}
		done = cut
		if err := checkAgainstOracle(c, tb, cols); err != nil {
			return fmt.Errorf("extended to %d rows: %w", cut, err)
		}
	}
	if err := checkAgainstOracle(NewCollector(), tb, cols); err != nil {
		return fmt.Errorf("cold at %d rows: %w", len(rows), err)
	}
	return nil
}

// awkwardColumn is one generator of the differential test: a column
// type and the value of row i of n.
type awkwardColumn struct {
	name    string
	typ     engine.Type
	cluster bool // offer to CorrelationClusters
	value   func(rng *rand.Rand, i, n int) engine.Value
}

func timeValue(ns int64) engine.Value { return engine.Value{Kind: engine.TypeTime, I: ns} }

// awkwardColumns are the shapes the collector's typed paths have to get
// right, one column each; a table of any row count is cut from them.
var awkwardColumns = []awkwardColumn{
	{"category", engine.TypeString, true, func(rng *rand.Rand, i, n int) engine.Value {
		return engine.String(fmt.Sprint("c", rng.IntN(4)))
	}},
	{"giant_group", engine.TypeString, true, func(rng *rand.Rand, i, n int) engine.Value {
		if rng.IntN(50) > 0 {
			return engine.String("giant")
		}
		return engine.String(fmt.Sprint("rare", rng.IntN(30)))
	}},
	{"growing_dict", engine.TypeString, true, func(rng *rand.Rand, i, n int) engine.Value {
		// The dictionary keeps growing with the row number.
		return engine.String(fmt.Sprint("g", rng.IntN(2+i/64)))
	}},
	{"all_null", engine.TypeString, true, func(rng *rand.Rand, i, n int) engine.Value {
		return engine.NullValue(engine.TypeString)
	}},
	{"nullable", engine.TypeString, true, func(rng *rand.Rand, i, n int) engine.Value {
		if rng.IntN(3) == 0 {
			return engine.NullValue(engine.TypeString)
		}
		return engine.String(fmt.Sprint("n", rng.IntN(3)))
	}},
	{"small_int", engine.TypeInt, true, func(rng *rand.Rand, i, n int) engine.Value {
		if rng.IntN(20) == 0 {
			return engine.NullValue(engine.TypeInt)
		}
		return engine.Int(int64(rng.IntN(9)) - 4)
	}},
	{"widening_int", engine.TypeInt, true, func(rng *rand.Rand, i, n int) engine.Value {
		// Starts inside a dense window and outgrows it mid-stream, in
		// both directions.
		return engine.Int(int64(rng.IntN(5)-2) * int64(1+(i/16)*(i/16)))
	}},
	{"extreme_int", engine.TypeInt, false, func(rng *rand.Rand, i, n int) engine.Value {
		return engine.Int([]int64{math.MinInt64, math.MaxInt64, 0, -1, 1}[rng.IntN(5)])
	}},
	{"id", engine.TypeInt, false, func(rng *rand.Rand, i, n int) engine.Value {
		return engine.Int(int64(i) * 7)
	}},
	{"special_float", engine.TypeFloat, true, func(rng *rand.Rand, i, n int) engine.Value {
		specials := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Inf(1), math.Inf(-1),
			math.Copysign(0, -1), 0, 1, 1.5, -2, 1e15, 1e300, math.SmallestNonzeroFloat64}
		if rng.IntN(10) == 0 {
			return engine.NullValue(engine.TypeFloat)
		}
		return engine.Float(specials[rng.IntN(len(specials))])
	}},
	{"nan_first", engine.TypeFloat, false, func(rng *rand.Rand, i, n int) engine.Value {
		if i == 0 {
			return engine.Float(math.NaN())
		}
		return engine.Float(float64(rng.IntN(100)) / 4)
	}},
	{"measure", engine.TypeFloat, false, func(rng *rand.Rand, i, n int) engine.Value {
		return engine.Float(rng.NormFloat64() * 1000) // all distinct
	}},
	{"subsecond", engine.TypeTime, true, func(rng *rand.Rand, i, n int) engine.Value {
		// Distinct instants inside one second, and the same across two.
		return timeValue(int64(rng.IntN(2))*1e9 + int64(rng.IntN(3)))
	}},
	{"days", engine.TypeTime, true, func(rng *rand.Rand, i, n int) engine.Value {
		if rng.IntN(15) == 0 {
			return engine.NullValue(engine.TypeTime)
		}
		return timeValue(int64(rng.IntN(6)) * 86400e9)
	}},
}

// awkwardTable generates n rows over awkwardColumns plus a subcategory
// column that determines category, and names the columns to cluster.
func awkwardTable(rng *rand.Rand, n int) (engine.Schema, [][]engine.Value, []string) {
	schema := engine.Schema{{Name: "subcategory", Type: engine.TypeString}}
	cols := []string{"subcategory"}
	for _, ac := range awkwardColumns {
		schema = append(schema, engine.ColumnDef{Name: ac.name, Type: ac.typ})
		if ac.cluster {
			cols = append(cols, ac.name)
		}
	}
	rows := make([][]engine.Value, n)
	for i := range rows {
		row := make([]engine.Value, 1, len(schema))
		for _, ac := range awkwardColumns {
			row = append(row, ac.value(rng, i, n))
		}
		// category is column 1: three subcategories under each.
		row[0] = engine.String(row[1].S + "/" + fmt.Sprint(rng.IntN(3)))
		rows[i] = row
	}
	rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
	return schema, rows, cols
}

// randomCuts draws k ascending cut points in [0, n].
func randomCuts(rng *rand.Rand, k, n int) []int {
	cuts := make([]int, k)
	for i := range cuts {
		cuts[i] = rng.IntN(n + 1)
	}
	for i := range cuts { // insertion sort: k is tiny
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	return cuts
}

// TestStatsDifferential: the collector against the naive oracle, over
// the awkward column shapes at the awkward row counts, each under
// several random append schedules — cold at N must equal extended k
// times to N, and both must equal the oracle, bit for bit.
func TestStatsDifferential(t *testing.T) {
	sizes := []int{0, 1, 2, 1023, 1024, 1025, 6000}
	if testing.Short() {
		sizes = sizes[:6]
	}
	for _, n := range sizes {
		for seed := uint64(1); seed <= 3 && (n < 6000 || seed == 1); seed++ { // the oracle is slow
			rng := rand.New(rand.NewPCG(seed, uint64(n)))
			schema, rows, cols := awkwardTable(rng, n)
			cuts := randomCuts(rng, rng.IntN(5), n)
			if err := runDifferential(schema, rows, cuts, cols); err != nil {
				t.Fatalf("rows %d seed %d cuts %v: %v", n, seed, cuts, err)
			}
		}
	}
}

// highCardinalityTable generates n rows of a 10⁵-value dimension, as a
// string and as a wide-spanning int, beside an 8- and a 16-value one
// and a float measure.
func highCardinalityTable(rng *rand.Rand, n int) (engine.Schema, [][]engine.Value) {
	schema := engine.Schema{
		{Name: "wide", Type: engine.TypeString},
		{Name: "wide_int", Type: engine.TypeInt},
		{Name: "eight", Type: engine.TypeString},
		{Name: "sixteen", Type: engine.TypeInt},
		{Name: "measure", Type: engine.TypeFloat},
	}
	rows := make([][]engine.Value, n)
	for i := range rows {
		w := rng.IntN(100_000)
		rows[i] = []engine.Value{
			engine.String(fmt.Sprint("w", w)),
			engine.Int(int64(w) * 1_000_003),
			engine.String(fmt.Sprint("e", w%8)),
			engine.Int(int64(rng.IntN(16))),
			engine.Float(float64(rng.IntN(1 << 20))),
		}
	}
	return schema, rows
}

// TestStatsDifferentialHighCardinality: a 10⁵-value dimension — the
// heavy-frequency list past five entries, a contingency table past the
// dense cell cap — beside small ones.
func TestStatsDifferentialHighCardinality(t *testing.T) {
	if testing.Short() {
		t.Skip("120k rows through the string-keyed oracle")
	}
	const n = 120_000
	for seed := uint64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewPCG(seed, n))
		schema, rows := highCardinalityTable(rng, n)
		cuts := randomCuts(rng, 2, n)
		wide := []string{"wide", "wide_int"}[seed%2] // never both: the oracle's table is dense
		if err := runDifferential(schema, rows, cuts, []string{"eight", wide, "sixteen"}); err != nil {
			t.Fatalf("seed %d cuts %v: %v", seed, cuts, err)
		}
	}
}

// FuzzStatsDifferential: bytes -> schema + rows + append cut points;
// the collector must equal the oracle at every cut and cold at the end.
func FuzzStatsDifferential(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 10, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 200, 201, 202, 0, 0, 0})
	f.Add([]byte{4, 3, 2, 1, 0, 1, 255, 254, 253, 252, 128, 127, 126, 125, 64, 63, 62, 61})
	f.Add([]byte{1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		types := []engine.Type{engine.TypeString, engine.TypeInt, engine.TypeFloat, engine.TypeTime}
		floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, math.NaN(), math.Float64frombits(0xfff8000000000001),
			math.Inf(1), math.Inf(-1), 1e15, 123456.75, math.MaxFloat64}
		ints := []int64{0, 1, -1, 2, 3, 65535, 65536, -65536, 1 << 40, math.MinInt64, math.MaxInt64, 999_999_999, 1_000_000_000}
		var schema engine.Schema
		var cols []string
		for i, n := 0, 1+int(next()%4); i < n; i++ {
			name := fmt.Sprint("c", i)
			schema = append(schema, engine.ColumnDef{Name: name, Type: types[next()%4]})
			cols = append(cols, name)
		}
		var cuts []int
		for i, n := 0, int(next()%4); i < n; i++ {
			cuts = append(cuts, int(next()))
		}
		var rows [][]engine.Value
		for len(data) > 0 && len(rows) < 400 {
			row := make([]engine.Value, len(schema))
			for i, def := range schema {
				b := next()
				switch {
				case b%7 == 0:
					row[i] = engine.NullValue(def.Type)
				case def.Type == engine.TypeString:
					row[i] = engine.String(fmt.Sprint("s", b%11))
				case def.Type == engine.TypeInt:
					row[i] = engine.Int(ints[int(b)%len(ints)])
				case def.Type == engine.TypeFloat:
					row[i] = engine.Float(floats[int(b)%len(floats)])
				default:
					row[i] = timeValue(ints[int(b)%len(ints)])
				}
			}
			rows = append(rows, row)
		}
		for i := range cuts {
			cuts[i] = min(cuts[i], len(rows))
			if i > 0 {
				cuts[i] = max(cuts[i], cuts[i-1])
			}
		}
		if err := runDifferential(schema, rows, cuts, cols); err != nil {
			t.Fatal(err)
		}
	})
}

// answers is everything a collector serves for a table at one cut.
type answers struct {
	stats, described *TableStats
	clusters         string
	vbits            []uint64
}

func collectAnswers(c *Collector, tb *engine.Table, cols []string) (answers, error) {
	a := answers{stats: c.Stats(tb), described: c.Describe(tb)}
	for _, th := range clusterThresholds {
		cl, err := c.CorrelationClusters(tb, cols, th)
		if err != nil {
			return a, err
		}
		a.clusters += fmt.Sprint(cl)
	}
	schema, st := tb.Schema(), c.stateFor(tb)
	for k, ca := range cols {
		for _, cb := range cols[k+1:] {
			a.vbits = append(a.vbits, math.Float64bits(st.pairs[[2]int{schema.ColumnIndex(ca), schema.ColumnIndex(cb)}].v))
		}
	}
	return a, nil
}

func answersEqual(got, want answers) error {
	if err := tableStatsEqual(got.stats, want.stats, false); err != nil {
		return fmt.Errorf("Stats: %w", err)
	}
	if err := tableStatsEqual(got.described, want.described, true); err != nil {
		return fmt.Errorf("Describe: %w", err)
	}
	if got.clusters != want.clusters || fmt.Sprint(got.vbits) != fmt.Sprint(want.vbits) {
		return fmt.Errorf("clusters %s, V bits %x; want %s, %x", got.clusters, got.vbits, want.clusters, want.vbits)
	}
	return nil
}

// TestCollectorWorkerCountIndependent: the collector fans columns and
// pairs out over GOMAXPROCS goroutines, and what it serves does not
// depend on how many there are. Tables of tens of thousands of rows,
// cut into batches that reach parallelRows and batches that do not, are
// collected at GOMAXPROCS 1, 2 and 8; every answer at every cut must be
// bit for bit the one-worker answer, which TestStatsDifferential holds
// to the oracle.
func TestCollectorWorkerCountIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	type shape struct {
		name   string
		schema engine.Schema
		rows   [][]engine.Value
		cols   [][]string // one per schedule, in turn
	}
	rng := rand.New(rand.NewPCG(30, 1))
	schema, rows, cols := awkwardTable(rng, 3*parallelRows)
	shapes := []shape{{"awkward", schema, rows, [][]string{cols}}}
	if !testing.Short() {
		schema, rows := highCardinalityTable(rng, 120_000)
		shapes = append(shapes, shape{"high-cardinality", schema, rows,
			[][]string{{"eight", "wide", "sixteen"}, {"wide_int", "sixteen", "eight"}}})
	}
	for _, sh := range shapes {
		n := len(sh.rows)
		for k, cuts := range [][]int{nil, randomCuts(rng, 2, n), randomCuts(rng, 4, n)} {
			cols := sh.cols[k%len(sh.cols)]
			var want [][]answers
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				tb, err := engine.NewTable("w", sh.schema)
				if err != nil {
					t.Fatal(err)
				}
				c, done := NewCollector(), 0
				var got []answers
				for _, cut := range append(cuts, n) {
					if _, err := tb.Append(sh.rows[done:cut]); err != nil {
						t.Fatal(err)
					}
					done = cut
					a, err := collectAnswers(c, tb, cols)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, a)
				}
				if procs == 1 {
					want = append(want, got)
					continue
				}
				for i := range got {
					if err := answersEqual(got[i], want[len(want)-1][i]); err != nil {
						t.Fatalf("%s, cuts %v, GOMAXPROCS %d, at %d rows: %v", sh.name, cuts, procs, got[i].stats.Rows, err)
					}
				}
			}
		}
	}
}

// TestBatchCountingEdges: string and window-coded int and time columns
// count a batch into a delta and fold it once per touched code. The
// folds that are easiest to get wrong, against the oracle.
func TestBatchCountingEdges(t *testing.T) {
	schema := engine.Schema{
		{Name: "s", Type: engine.TypeString},
		{Name: "i", Type: engine.TypeInt},
		{Name: "t", Type: engine.TypeTime},
	}
	cols := []string{"s", "i", "t"}
	row := func(s string, i int64, ts engine.Value) []engine.Value {
		return []engine.Value{engine.String(s), engine.Int(i), ts}
	}
	t.Run("one value cold", func(t *testing.T) {
		// One code takes 10k counts in one fold: straight to heavy.
		rows := make([][]engine.Value, 10_000)
		for i := range rows {
			rows[i] = row("x", 7, timeValue(86400e9))
		}
		if err := runDifferential(schema, rows, nil, cols); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("heavy inside one batch", func(t *testing.T) {
		// 3k rows, then one 5k-row append. s: "a" 1000 → exactly
		// heavyFreq, "b" 2000 → 3904, still light. i: 1 2000 → 6000,
		// past heavyFreq; 3 first seen in the append. t: NULL, then 5000
		// copies of one instant.
		rng := rand.New(rand.NewPCG(4096, 1))
		var first, second [][]engine.Value
		for k := 0; k < 3000; k++ {
			s := map[bool]string{true: "a", false: "b"}[k < 1000]
			i := map[bool]int64{true: 1, false: 2}[k < 2000]
			first = append(first, row(s, i, engine.NullValue(engine.TypeTime)))
		}
		for k := 0; k < 5000; k++ {
			s := map[bool]string{true: "a", false: "b"}[k < heavyFreq-1000]
			i := map[bool]int64{true: 1, false: 3}[k < 4000]
			second = append(second, row(s, i, timeValue(1)))
		}
		rng.Shuffle(len(first), func(a, b int) { first[a], first[b] = first[b], first[a] })
		rng.Shuffle(len(second), func(a, b int) { second[a], second[b] = second[b], second[a] })
		if err := runDifferential(schema, append(first, second...), []int{len(first)}, cols); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("wide dictionary grown by 600 rows", func(t *testing.T) {
		// The fold costs the batch and the codes it touched: a 600-row
		// extension of a 10⁵-value dictionary allocates what one of a
		// 10-value dictionary does, and not a byte per code.
		const card, batch = 100_000, 600
		wide := engine.Schema{{Name: "w", Type: engine.TypeString}, {Name: "e", Type: engine.TypeString}}
		rowOf := func(v int) []engine.Value {
			return []engine.Value{engine.String(fmt.Sprint("w", v)), engine.String(fmt.Sprint("e", v%8))}
		}
		rows := make([][]engine.Value, card+batch)
		for i := range rows {
			rows[i] = rowOf(i * 7919 % card)
		}
		if err := runDifferential(wide, rows, []int{card}, []string{"w", "e"}); err != nil {
			t.Fatal(err)
		}
		// The summaries alone, extended batch by batch over a table that
		// already holds every row, so nothing but the extension runs.
		extension := func(card int) (allocs float64, bytes uint64) {
			const base, runs = 100_000, 4
			tb := engine.MustNewTable("wide", wide)
			rows := make([][]engine.Value, base+2*(runs+1)*batch)
			for i := range rows {
				rows[i] = rowOf(i % card)
			}
			if _, err := tb.Append(rows); err != nil {
				t.Fatal(err)
			}
			st, done := &tableState{cols: make([]colSummary, tb.NumCols())}, base
			st.extend(tb, done)
			extend := func() { done += batch; st.extend(tb, done) }
			allocs = testing.AllocsPerRun(runs, extend)
			var before, after runtime.MemStats
			for k := 0; k <= runs; k++ {
				runtime.ReadMemStats(&before)
				extend()
				runtime.ReadMemStats(&after)
				bytes += (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
			}
			return allocs, bytes
		}
		narrowAllocs, narrowBytes := extension(10)
		wideAllocs, wideBytes := extension(card)
		if wideAllocs != narrowAllocs {
			t.Errorf("a %d-row extension allocates %v times over %d values, %v over 10", batch, wideAllocs, card, narrowAllocs)
		}
		if wideBytes > narrowBytes+card {
			t.Errorf("a %d-row extension allocates %d bytes over %d values, %d over 10: O(cardinality)", batch, wideBytes, card, narrowBytes)
		}
	})
}
