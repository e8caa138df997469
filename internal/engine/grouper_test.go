package engine

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"seedb/internal/obs"
)

// sharingTable has rows rows of: dim (8 strings, no NULLs), wide (the
// row number, a dense key with more slots than a chunk has rows), tag
// ("t" on every 7th row, whose dim is always one of a, b, c) and two
// measures, m FLOAT and q INT.
func sharingTable(tb testing.TB, rows int) *Table {
	tb.Helper()
	t := MustNewTable("share", Schema{
		{Name: "dim", Type: TypeString}, {Name: "wide", Type: TypeInt}, {Name: "tag", Type: TypeString},
		{Name: "m", Type: TypeFloat}, {Name: "q", Type: TypeInt},
	})
	l := t.StartLoad()
	for r := 0; r < rows; r++ {
		tag, dim := "f", string(rune('a'+r%8))
		if r%7 == 0 {
			tag, dim = "t", string(rune('a'+r%3))
		}
		l.Column(0).(*StringColumn).AppendString(dim)
		l.Column(1).(*IntColumn).AppendInt(int64(r))
		l.Column(2).(*StringColumn).AppendString(tag)
		l.Column(3).(*FloatColumn).AppendFloat(float64(r%13) * 0.25)
		l.Column(4).(*IntColumn).AppendInt(int64(r % 5))
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	return t
}

// TestSparseMeasuresGatheredOncePerChunk: the chunk driver gathers each
// measure column a sparse row set's accumulators read once per chunk,
// however many groupers read it, and a set holding every row is never
// gathered.
func TestSparseMeasuresGatheredOncePerChunk(t *testing.T) {
	const rows = 3*ChunkRows + 100
	cat := NewCatalog()
	if err := cat.Register(sharingTable(t, rows)); err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(cat)
	target := Compare("tag", OpEq, String("t"))
	aggs := []AggSpec{
		{Func: AggSum, Column: "m", Alias: "c_m"},
		{Func: AggSum, Column: "m", Filter: target, Alias: "t_m"},
		{Func: AggAvg, Column: "q", Filter: target, Alias: "t_q"},
		{Func: AggMax, Column: "m", Filter: target, Alias: "t_max"},
	}
	keys := [][]string{{"dim"}, {"wide"}, {"dim", "wide"}, {"dim", "wide", "tag"}, nil}
	for _, k := range []int{1, len(keys)} {
		var gsets []GroupingSet
		for _, by := range keys[:k] {
			gsets = append(gsets, GroupingSet{By: by, Aggs: aggs})
		}
		s, err := ex.bindScan(context.Background(), &Query{Table: "share", Parallelism: 1}, gsets, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.runGroupers(context.Background(), s.plans, s.lo, s.hi); err != nil {
			s.t.mu.RUnlock()
			t.Fatal(err)
		}
		s.t.mu.RUnlock()
		filtered := slices.Index(s.fs.rowSets, rowSet{filter: 0})
		got := s.kernels[0].gathers
		// Four chunks, two measure columns (m, q) over the filtered set.
		if want := 4 * 2; got[filtered] != want || got[0] != 0 {
			t.Fatalf("%d grouping sets: gathered %v column-chunks per row set, want %d for the filtered set %d and 0 for set 0",
				k, got, want, filtered)
		}
	}
}

// TestSplitFilteredHalfMarksTargetGroups: the filtered half of a split
// set takes its groups from its target rows (groupRows is not row set
// 0), so it holds exactly the groups those rows reach — on a layout
// small enough to mark groups once per slot, one with more slots than
// a chunk has rows, and the hash layout.
func TestSplitFilteredHalfMarksTargetGroups(t *testing.T) {
	const rows = 3*ChunkRows + 100
	tab := sharingTable(t, rows)
	stored, _ := storeFixture(t, tab)
	target := Compare("tag", OpEq, String("t"))
	aggs := []AggSpec{
		{Func: AggSum, Column: "m", Alias: "c_m"},
		{Func: AggSum, Column: "m", Filter: target, Alias: "t_m"},
		{Func: AggCount, Filter: target, Alias: "t_n"},
	}
	for _, by := range [][]string{{"dim"}, {"wide"}, {"dim", "wide", "tag"}} {
		s, err := stored.bindScan(context.Background(), &Query{Table: "share", Parallelism: 1}, []GroupingSet{{By: by, Aggs: aggs}}, false)
		if err != nil {
			t.Fatal(err)
		}
		own := s.parts[len(s.parts)-1].plans[0]
		if s.zips == nil || own.groupRows == 0 {
			s.t.mu.RUnlock()
			t.Fatalf("%v: the set was not split into a filtered half with its own group rows", by)
		}
		gs, err := s.runGroupers(context.Background(), []*grouperPlan{own}, s.lo, s.hi)
		s.t.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{}
		for r := 0; r < rows; r += 7 {
			key := []Value{String(string(rune('a' + r%3))), Int(int64(r)), String("t")}
			switch {
			case len(by) == 3:
			case by[0] == "dim":
				key = key[:1]
			default:
				key = key[1:2]
			}
			want[fmt.Sprint(key)] = true
		}
		got := map[string]bool{}
		gs[0].forEachGroup(func(key []Value, _ []accumulator) { got[fmt.Sprint(key)] = true })
		if len(got) != len(want) {
			t.Fatalf("%v: the filtered half holds %d groups, its target rows reach %d", by, len(got), len(want))
		}
		for k := range got {
			if !want[k] {
				t.Fatalf("%v: the filtered half holds group %s, which no target row reaches", by, k)
			}
		}
	}
}

// TestEngineScanSpan: a shared scan records one engine-scan span under
// the caller's trace, saying what it scanned, how its sets were laid
// out and how many sealed cells it digested; without a trace it records
// nothing.
func TestEngineScanSpan(t *testing.T) {
	const rows = 3*ChunkRows + 100
	stored, cold := storeFixture(t, sharingTable(t, rows))
	target := Compare("tag", OpEq, String("t"))
	aggs := []AggSpec{{Func: AggSum, Column: "m", Alias: "c_m"}, {Func: AggSum, Column: "m", Filter: target, Alias: "t_m"}}
	gsets := []GroupingSet{{By: []string{"dim"}, Aggs: aggs}, {By: []string{"dim", "wide", "tag"}, Aggs: aggs}}
	q := &Query{Table: "share", Parallelism: 1}
	tracer := obs.NewTracer(4)
	for _, c := range []struct {
		ex             *Executor
		passes, hashed string
	}{{cold, "1", "0"}, {stored, "2", "3"}} { // stored: digests and scans the sealed cells, then the tail
		tr := tracer.New("scan")
		if _, err := c.ex.RunSharedScan(obs.ContextWithTrace(context.Background(), tr), q, gsets); err != nil {
			t.Fatal(err)
		}
		tracer.Finish(tr)
		d, _ := tracer.Get("scan")
		if len(d.Spans) != 1 || d.Spans[0].Name != "engine-scan" {
			t.Fatalf("want one engine-scan span, got %+v", d.Spans)
		}
		want := map[string]string{"table": "share", "rows": fmt.Sprint(rows), "passes": c.passes,
			"sets": "2", "dense": "1", "hash": "1", "gathered": "1", "hashed": c.hashed}
		if got := d.Spans[0].Attrs; !maps.Equal(got, want) {
			t.Fatalf("engine-scan attributes %v, want %v", got, want)
		}
	}
}
