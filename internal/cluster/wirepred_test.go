package cluster_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"seedb"
	"seedb/internal/engine"
)

// wirePredTable holds a float measure with NaN, ±Inf, −0 and NULL
// beside a TIMESTAMP column, over several grid cells.
func wirePredTable(t *testing.T) *engine.Table {
	t.Helper()
	tab := engine.MustNewTable("wp", engine.Schema{
		{Name: "g", Type: engine.TypeString},
		{Name: "x", Type: engine.TypeFloat},
		{Name: "ts", Type: engine.TypeTime},
	})
	base := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	specials := []engine.Value{engine.Float(math.NaN()), engine.Float(math.Inf(1)), engine.Float(math.Inf(-1)),
		engine.Float(math.Copysign(0, -1)), engine.Float(0), engine.NullValue(engine.TypeFloat)}
	var rows [][]engine.Value
	for i := 0; i < 3000; i++ {
		x := engine.Float(float64(i%41) - 20)
		if i%97 == 0 {
			x = specials[(i/97)%len(specials)]
		}
		rows = append(rows, []engine.Value{engine.String(fmt.Sprintf("g%d", i%4)), x, engine.Time(base.Add(time.Duration(i) * time.Hour))})
	}
	if _, err := tab.Append(rows); err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestWirePredicatesMatchSolo: a worker evaluates exactly the predicate
// the coordinator would. Over two HTTP workers, replicated and placed
// rf=2, a TIMESTAMP column compared with a STRING literal fails as solo
// fails (a worker that re-read the literal as a timestamp answered
// rows), and NaN, ±Inf, −0 and NULL literals — in the WHERE clause and
// in an aggregate filter — are answered by the workers, bit-identical
// to solo, with nothing failed over.
func TestWirePredicatesMatchSolo(t *testing.T) {
	ctx := context.Background()
	query := func(p engine.Predicate) *engine.Query {
		return &engine.Query{Table: "wp", Where: p, GroupBy: []string{"g"}, Aggs: []engine.AggSpec{
			{Func: engine.AggCount}, {Func: engine.AggSum, Column: "x"}, {Func: engine.AggMin, Column: "x"},
			{Func: engine.AggCount, Alias: "n_filtered", Filter: p}}}
	}
	render := func(res *engine.Result) string {
		var b strings.Builder
		for _, row := range res.Rows {
			for _, v := range row {
				if v.Kind == engine.TypeFloat && !v.Null {
					fmt.Fprintf(&b, "%x ", math.Float64bits(v.F))
				} else {
					fmt.Fprintf(&b, "%s ", v.Format())
				}
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	solo := seedb.Open()
	if err := solo.RegisterTable(wirePredTable(t)); err != nil {
		t.Fatal(err)
	}

	mistyped := query(engine.Compare("ts", engine.OpGt, engine.String("2014-03-01 00:00:00")))
	_, soloErr := solo.Backend().Run(ctx, mistyped)
	if soloErr == nil {
		t.Fatal("solo compares a TIMESTAMP column with a STRING literal")
	}
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	literals := []engine.Predicate{
		engine.Compare("x", engine.OpLt, engine.Float(inf)),
		engine.Compare("x", engine.OpGt, engine.Float(-inf)),
		engine.Compare("x", engine.OpNe, engine.Float(nan)),
		engine.Compare("x", engine.OpGe, engine.Float(negZero)),
		engine.Eq("x", engine.NullValue(engine.TypeFloat)),
		engine.In("x", engine.Float(nan), engine.Float(negZero), engine.Float(-inf)),
		engine.And(engine.Not(engine.IsNull("x")), engine.Or(engine.Compare("x", engine.OpLe, engine.Float(negZero)), engine.Eq("x", engine.Float(inf)))),
	}

	for _, rf := range []int{0, 2} {
		t.Run(fmt.Sprintf("rf=%d", rf), func(t *testing.T) {
			b := httpFleet(t, rf, func() *engine.Table { return wirePredTable(t) })
			if _, err := b.Run(ctx, mistyped); err == nil || !strings.Contains(err.Error(), soloErr.Error()) {
				t.Fatalf("TIMESTAMP vs STRING: got %v, want solo's %q", err, soloErr)
			}
			for _, p := range literals {
				q := query(p)
				want, err := solo.Backend().Run(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				before := b.Counters()
				got, err := b.Run(ctx, q)
				if err != nil {
					t.Fatalf("%v: %v", p, err)
				}
				if render(got) != render(want) {
					t.Fatalf("%v: differs from solo:\n%s\nvs\n%s", p, render(got), render(want))
				}
				if c := b.Counters(); c.ShardCalls == before.ShardCalls || c.Failovers != before.Failovers {
					t.Fatalf("%v: not answered by the workers: %+v, before %+v", p, c, before)
				}
			}
			assertAllHealthy(t, b)
		})
	}
}
