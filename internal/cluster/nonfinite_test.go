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

// nonFiniteTable holds a measure with NaN, +Inf and -Inf scattered over
// several grid cells (and groups that meet none, one or all of them).
func nonFiniteTable(t *testing.T) *engine.Table {
	t.Helper()
	tab := engine.MustNewTable("nf", engine.Schema{
		{Name: "g", Type: engine.TypeString},
		{Name: "m", Type: engine.TypeFloat},
	})
	l := tab.StartLoad()
	g, m := l.Column(0).(*engine.StringColumn), l.Column(1).(*engine.FloatColumn)
	for i := 0; i < 5000; i++ {
		g.AppendString(fmt.Sprintf("g%d", i%5))
		switch {
		case i%5 == 1 && i%1000 == 1: // g1: NaN in every worker's range
			m.AppendFloat(math.NaN())
		case i%5 == 2 && i == 1502: // g2: one +Inf
			m.AppendFloat(math.Inf(1))
		case i%5 == 3 && i == 4003: // g3: one -Inf
			m.AppendFloat(math.Inf(-1))
		case i%5 == 4 && (i == 9 || i == 3004): // g4: both infinities
			m.AppendFloat(math.Inf(i - 10)) // -Inf at row 9, +Inf at row 3004
		default:
			m.AppendFloat(float64(i%37) - 18)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestNonFiniteMeasuresCrossTheWire: accumulator extremes used to
// travel as bare JSON numbers, so one ±Inf (or NaN) in a MIN/MAX/VAR
// measure made every shard response fail to encode and the coordinator
// fall back to local scans. Sharded and placed rf=2 over two HTTP
// workers must answer from the workers, bit-identical to solo.
func TestNonFiniteMeasuresCrossTheWire(t *testing.T) {
	ctx := context.Background()
	q := &engine.Query{Table: "nf", GroupBy: []string{"g"}, Aggs: []engine.AggSpec{
		{Func: engine.AggMin, Column: "m"}, {Func: engine.AggMax, Column: "m"},
		{Func: engine.AggSum, Column: "m"}, {Func: engine.AggVariance, Column: "m"},
	}}
	open := func() *seedb.DB {
		db := seedb.Open()
		if err := db.RegisterTable(nonFiniteTable(t)); err != nil {
			t.Fatal(err)
		}
		return db
	}
	render := func(db *seedb.DB) string {
		t.Helper()
		res, err := db.Backend().Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, row := range res.Rows {
			out += row[0].S
			for _, v := range row[1:] {
				out += fmt.Sprintf(" %x", math.Float64bits(v.F))
			}
			out += "\n"
		}
		return out
	}
	want := render(open())

	sharded := open()
	var urls []string
	for i := 0; i < 2; i++ {
		hs, wdb := startEmptyWorker(t)
		if err := wdb.RegisterTable(nonFiniteTable(t)); err != nil {
			t.Fatal(err)
		}
		urls = append(urls, hs.URL)
	}
	sb := sharded.ShardRemote(urls, 10*time.Second, seedb.ClusterConfig{})
	if got := render(sharded); got != want {
		t.Fatalf("sharded differs from solo:\n%s\nvs\n%s", got, want)
	}
	if c := sb.Counters(); c.ShardCalls == 0 || c.Failovers != 0 || c.Retries != 0 {
		t.Fatalf("sharded query was not answered by the workers: %+v", c)
	}

	placed := open()
	urls = urls[:0]
	for i := 0; i < 2; i++ {
		hs, _ := startEmptyWorker(t)
		urls = append(urls, hs.URL)
	}
	pb, err := placed.PlaceRemote(ctx, urls, 10*time.Second, placementConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := render(placed); got != want {
		t.Fatalf("placed rf=2 differs from solo:\n%s\nvs\n%s", got, want)
	}
	if c := pb.Counters(); c.RangeCalls == 0 || c.Failovers != 0 {
		t.Fatalf("placed query was not answered by the workers: %+v", c)
	}
}

// TestNegativeZeroExtremeCrossesTheWire: a MIN (or MAX) that is −0 used
// to leave the worker as an omitted JSON number and arrive as +0 — one
// bit off solo. Two HTTP workers, the −0 in the second one's range.
func TestNegativeZeroExtremeCrossesTheWire(t *testing.T) {
	ctx := context.Background()
	table := func() *engine.Table {
		tab := engine.MustNewTable("nz", engine.Schema{{Name: "m", Type: engine.TypeFloat}})
		l := tab.StartLoad()
		m := l.Column(0).(*engine.FloatColumn)
		for i := 0; i < 3000; i++ {
			m.AppendFloat(float64(1 + i%7))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := tab.AppendRow(engine.Float(math.Copysign(0, -1))); err != nil {
			t.Fatal(err)
		}
		return tab
	}
	coord := seedb.Open()
	if err := coord.RegisterTable(table()); err != nil {
		t.Fatal(err)
	}
	var urls []string
	for i := 0; i < 2; i++ {
		hs, wdb := startEmptyWorker(t)
		if err := wdb.RegisterTable(table()); err != nil {
			t.Fatal(err)
		}
		urls = append(urls, hs.URL)
	}
	b := coord.ShardRemote(urls, 10*time.Second, seedb.ClusterConfig{})
	q := &engine.Query{Table: "nz", Aggs: []engine.AggSpec{{Func: engine.AggMin, Column: "m"}, {Func: engine.AggMax, Column: "m", Filter: engine.Compare("m", engine.OpLt, engine.Float(1))}}}
	res, err := b.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Rows[0] {
		if v.F != 0 || !math.Signbit(v.F) {
			t.Fatalf("aggregate %d = %v (bits %x), want -0", i, v.F, math.Float64bits(v.F))
		}
	}
	if c := b.Counters(); c.ShardCalls != 2 || c.Failovers != 0 {
		t.Fatalf("the query was not answered by the workers: %+v", c)
	}
}

// TestNonFiniteGroupKeyCrossesTheWire: a NaN or ±Inf float group key
// used to have no JSON number, so a worker's answer failed to encode
// after its 200 had been sent — the coordinator read a truncated body,
// retried, failed over and struck every worker, and later scans all ran
// on the coordinator. A property of the data must not strike a worker:
// keys NaN, +Inf, −Inf and −0 (one group with +0), sharded and placed
// rf=2 over two HTTP workers, bit-identical to solo, nothing retried or
// failed over, every worker healthy.
func TestNonFiniteGroupKeyCrossesTheWire(t *testing.T) {
	ctx := context.Background()
	q := &engine.Query{Table: "nf", GroupBy: []string{"m"}, Aggs: []engine.AggSpec{
		{Func: engine.AggCount}, {Func: engine.AggSum, Column: "m"}, {Func: engine.AggMin, Column: "m"},
	}}
	table := func() *engine.Table {
		tab := nonFiniteTable(t)
		for i := 0; i < 3; i++ {
			if err := tab.AppendRow(engine.String("g0"), engine.Float(math.Copysign(0, -1))); err != nil {
				t.Fatal(err)
			}
		}
		return tab
	}
	render := func(res *engine.Result) string {
		out := ""
		for _, row := range res.Rows {
			out += fmt.Sprintf("%x %d %x %x\n", math.Float64bits(row[0].F), row[1].I, math.Float64bits(row[2].F), math.Float64bits(row[3].F))
		}
		return out
	}
	solo := seedb.Open()
	if err := solo.RegisterTable(table()); err != nil {
		t.Fatal(err)
	}
	soloRes, err := solo.Backend().Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want := render(soloRes)
	for _, key := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0} {
		if !strings.Contains("\n"+want, fmt.Sprintf("\n%x ", math.Float64bits(key))) {
			t.Fatalf("solo answer lacks the %v group:\n%s", key, want)
		}
	}
	for _, rf := range []int{0, 2} {
		b := httpFleet(t, rf, table)
		for pass := 0; pass < 2; pass++ {
			res, err := b.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if got := render(res); got != want {
				t.Fatalf("rf=%d pass %d: differs from solo:\n%s\nvs\n%s", rf, pass, got, want)
			}
		}
		cleanFleet(t, fmt.Sprintf("rf=%d", rf), b)
	}
}
