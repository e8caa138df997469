package cluster_test

// Tests of the one backend's shared mechanism, run against both
// layouts: failure classification (a query fault blames nobody), the
// three behaviours the two old backends had drifted apart on, and the
// layout-equivalence property — replicated ≡ placed at every rf ≡ solo.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"seedb"
	"seedb/internal/engine"
)

// replicateManual builds a replicated-layout DB over n
// gate-controllable members, each bootstrapped with full replicas by
// AddWorker — placeManual's counterpart for the other layout.
func replicateManual(t *testing.T, rows, n int, cfg seedb.ClusterConfig) (*seedb.DB, *seedb.ClusterBackend, []*seedb.MemberShard) {
	t.Helper()
	db := newDB(t, rows)
	b, members := replicateOnto(t, db, n, cfg)
	return db, b, members
}

// replicateOnto makes db a replicated coordinator over n in-process
// members, each shipped every table whole.
func replicateOnto(t *testing.T, db *seedb.DB, n int, cfg seedb.ClusterConfig) (*seedb.ClusterBackend, []*seedb.MemberShard) {
	t.Helper()
	b := db.ShardRemote(nil, 0, cfg)
	members := make([]*seedb.MemberShard, n)
	for i := range members {
		members[i] = seedb.NewMemberShard("gate-" + string(rune('a'+i)))
		if _, _, err := b.AddWorker(context.Background(), members[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b, members
}

// bothLayouts runs f once per layout over n in-process members.
func bothLayouts(t *testing.T, rows, n int, cfg seedb.ClusterConfig, f func(t *testing.T, db *seedb.DB, b *seedb.ClusterBackend, members []*seedb.MemberShard)) {
	t.Run("replicated", func(t *testing.T) {
		cfg := cfg
		cfg.Replication = 0
		db, b, members := replicateManual(t, rows, n, cfg)
		f(t, db, b, members)
	})
	t.Run("placed", func(t *testing.T) {
		cfg := cfg
		cfg.Replication, cfg.PlacementChunks = 2, 1
		db, b, members := placeManual(t, rows, n, cfg)
		f(t, db, b, members)
	})
}

func assertAllHealthy(t *testing.T, b *seedb.ClusterBackend) {
	t.Helper()
	for _, st := range b.Status() {
		if !st.Healthy || st.Failures != 0 {
			t.Fatalf("worker %s was penalised: %+v", st.ID, st)
		}
	}
}

// TestInvalidQueryDoesNotPoisonFleet: one invalid user query (SUM of a
// string column) must fail with the query's own error and leave every
// worker healthy and unretried, so the next valid query still runs on
// the fleet. The worker answers the bad request 400, which both worker
// kinds classify as a query fault.
func TestInvalidQueryDoesNotPoisonFleet(t *testing.T) {
	ctx := context.Background()
	const rows = 3000
	const bad = "SELECT * FROM orders WHERE category = 'Furniture' EXPLORE similarity PROBE SUM(region) BY category"
	const good = "SELECT * FROM orders WHERE category = 'Furniture'"
	hour := seedb.ClusterConfig{Cooldown: time.Hour}

	check := func(t *testing.T, db *seedb.DB, b *seedb.ClusterBackend) {
		t.Helper()
		_, err := db.RecommendSQL(ctx, bad, testOptions())
		if err == nil || !strings.Contains(err.Error(), "need numeric") {
			t.Fatalf("bad query should fail with its own error, got %v", err)
		}
		assertAllHealthy(t, b)
		c := b.Counters()
		if c.Retries != 0 || c.Mismatches != 0 {
			t.Fatalf("a query fault must not be retried: %+v", c)
		}
		got, err := db.RecommendSQL(ctx, good, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		after := b.Counters()
		if after.ShardCalls <= c.ShardCalls || after.Failovers != c.Failovers {
			t.Fatalf("follow-up query did not run on the fleet: %+v -> %+v", c, after)
		}
		want, err := newDB(t, rows).RecommendSQL(ctx, good, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		if render(got) != render(want) {
			t.Fatal("follow-up query changed result bytes")
		}
	}

	t.Run("replicated-http", func(t *testing.T) {
		w1, _ := startWorker(t, rows)
		w2, _ := startWorker(t, rows)
		db := newDB(t, rows)
		check(t, db, db.ShardRemote([]string{w1.URL, w2.URL}, 10*time.Second, hour))
	})
	t.Run("placed-http", func(t *testing.T) {
		w1, _ := startEmptyWorker(t)
		w2, _ := startEmptyWorker(t)
		db := newDB(t, rows)
		cfg := placementConfig(2)
		cfg.Cooldown = time.Hour
		b, err := db.PlaceRemote(ctx, []string{w1.URL, w2.URL}, 10*time.Second, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(t, db, b)
	})
	bothLayouts(t, rows, 2, hour, func(t *testing.T, db *seedb.DB, b *seedb.ClusterBackend, _ []*seedb.MemberShard) {
		check(t, db, b)
	})
}

// opaquePred is a predicate with no frame form: runnable anywhere,
// distributable nowhere.
type opaquePred struct{ engine.Predicate }

// TestQueryFaultRunsLocallyDespiteDisableFailover (drift a): a query
// fault — an unserializable predicate, a worker's 400 — runs the range
// on the coordinator, never retried elsewhere, and penalises no worker.
func TestQueryFaultRunsLocallyDespiteDisableFailover(t *testing.T) {
	ctx := context.Background()
	const rows = 3000
	cfg := seedb.ClusterConfig{Cooldown: time.Hour}
	bothLayouts(t, rows, 2, cfg, func(t *testing.T, db *seedb.DB, b *seedb.ClusterBackend, _ []*seedb.MemberShard) {
		q := &engine.Query{Table: "orders", GroupBy: []string{"region"},
			Where: opaquePred{engine.Eq("category", engine.String("Furniture"))},
			Aggs:  []engine.AggSpec{{Func: engine.AggSum, Column: "sales"}, {Func: engine.AggCount}}}
		want, err := newDB(t, rows).Backend().Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.Run(ctx, q)
		if err != nil {
			t.Fatalf("an undistributable query must run locally, got %v", err)
		}
		if got.String() != want.String() {
			t.Fatalf("local run of an undistributable query differs:\n%s\nvs\n%s", got, want)
		}
		if c := b.Counters(); c.ShardCalls != 0 || c.Retries != 0 {
			t.Fatalf("an unserializable query must never reach a worker: %+v", c)
		}

		// A request the worker rejects (400): the error is the query's
		// own, produced by the local run, not a wrapped worker failure.
		bad := &engine.Query{Table: "orders", GroupBy: []string{"category"},
			Aggs: []engine.AggSpec{{Func: engine.AggSum, Column: "region"}}}
		if _, err := b.Run(ctx, bad); err == nil || !strings.Contains(err.Error(), "need numeric") || strings.Contains(err.Error(), "failed for rows") {
			t.Fatalf("want the query's own error, got %v", err)
		}
		assertAllHealthy(t, b)
	})
}

var rpcCountRe = regexp.MustCompile(`(?m)^seedb_shard_rpc_seconds_count\{shard="([^"]+)"\} (\d+)$`)

// TestRPCHistogramObservesAttemptsPerWorker (drift b): the latency
// histogram and Status().Execs both count every attempt on the worker
// that served it — a failed attempt and its retry are two observations,
// and the coordinator's failover run is none.
func TestRPCHistogramObservesAttemptsPerWorker(t *testing.T) {
	ctx := context.Background()
	bothLayouts(t, 1000, 1, seedb.ClusterConfig{Cooldown: time.Hour}, func(t *testing.T, db *seedb.DB, b *seedb.ClusterBackend, members []*seedb.MemberShard) {
		members[0].SetGate(killExec)
		q := &engine.Query{Table: "orders", GroupBy: []string{"region"}, Aggs: []engine.AggSpec{{Func: engine.AggCount}}}
		if _, err := b.Run(ctx, q); err != nil {
			t.Fatal(err)
		}
		c := b.Counters()
		if c.ShardCalls != 2 || c.Retries != 1 || c.Failovers != 1 {
			t.Fatalf("want one attempt, one retry, one failover: %+v", c)
		}
		if st := b.Status()[0]; st.Execs != c.ShardCalls {
			t.Fatalf("Status().Execs = %d, want every attempt (%d)", st.Execs, c.ShardCalls)
		}
		var buf bytes.Buffer
		db.Observability().Metrics.WritePrometheus(&buf)
		series := rpcCountRe.FindAllStringSubmatch(buf.String(), -1)
		if len(series) != 1 || series[0][1] != members[0].ID() || series[0][2] != "2" {
			t.Fatalf("want exactly {shard=%q} 2, got %v", members[0].ID(), series)
		}
	})
}

// TestIngestForwardsConcurrentlyWithFragmentIDs (drift c): the owners
// of a fragment are forwarded to concurrently — each owner's ingest
// blocks until the other's has arrived, which serial forwarding could
// never satisfy — and status IDs are worker/fragment in both layouts.
func TestIngestForwardsConcurrentlyWithFragmentIDs(t *testing.T) {
	ctx := context.Background()
	bothLayouts(t, 1000, 2, seedb.ClusterConfig{}, func(t *testing.T, db *seedb.DB, b *seedb.ClusterBackend, members []*seedb.MemberShard) {
		var arrived atomic.Int32
		both := make(chan struct{})
		for _, m := range members {
			m.SetGate(func(op string) error {
				if op != "ingest" {
					return nil
				}
				if arrived.Add(1) == 2 {
					close(both)
				}
				select {
				case <-both:
					return nil
				case <-time.After(5 * time.Second):
					return errors.New("ingest forwarded serially: the other owner never arrived")
				}
			})
		}
		sum, err := b.Ingest(ctx, "orders", ingestRows(10)) // stays inside placement 0
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.Shards) != 2 {
			t.Fatalf("want one status per owner, got %+v", sum.Shards)
		}
		seen := map[string]bool{}
		for _, st := range sum.Shards {
			if !st.OK {
				t.Fatalf("forward failed: %+v", st)
			}
			worker, frag, ok := strings.Cut(st.ID, "/")
			if !ok || !strings.HasPrefix(worker, "gate-") || !strings.HasPrefix(frag, "orders") {
				t.Fatalf("status ID %q is not worker/fragment", st.ID)
			}
			seen[worker] = true
		}
		if len(seen) != len(members) {
			t.Fatalf("want one status per distinct owner, got %+v", sum.Shards)
		}
	})
}

// layoutCase is one way to stand a fleet of n members up.
type layoutCase struct {
	name string
	rf   int // 0 = replicated
}

// canaryTable is the row-order canary: MIN/MAX keep the FIRST of −0/+0
// they meet (the two compare equal), so a fold that puts a later row
// range before an earlier one flips a sign bit. Group "edge" holds
// alternating −0/+0 on both sides of every 1024-row edge (a chunk edge,
// and a fragment edge at one chunk per placement) and mid-chunk, in a
// measure whose other values are positive (lo: MIN is the first zero)
// and one whose other values are negative (hi: MAX is); group "nan"
// meets a NaN on one edge; the rest is order-sensitive float noise.
func canaryTable(t *testing.T, rng *rand.Rand) *engine.Table {
	t.Helper()
	tab := engine.MustNewTable("canary", engine.Schema{
		{Name: "g", Type: engine.TypeString},
		{Name: "lo", Type: engine.TypeFloat},
		{Name: "hi", Type: engine.TypeFloat},
	})
	rows := 4*1024 + 1 + rng.IntN(2000)
	zero := math.Copysign(0, float64(rng.IntN(2)*2-1))
	nanRow := (1+rng.IntN(4))*1024 - rng.IntN(2)
	l := tab.StartLoad()
	g, lo, hi := l.Column(0).(*engine.StringColumn), l.Column(1).(*engine.FloatColumn), l.Column(2).(*engine.FloatColumn)
	for i := 0; i < rows; i++ {
		noise := float64(1+rng.IntN(100000)) / 100
		switch at := i % 1024; {
		case i == nanRow:
			g.AppendString("nan")
			lo.AppendFloat(math.NaN())
			hi.AppendFloat(-noise)
		case at == 1023 || at == 0 || at == 511 || at == 512:
			g.AppendString("edge")
			lo.AppendFloat(zero)
			hi.AppendFloat(-zero)
			zero = -zero
		default:
			g.AppendString([]string{"edge", "nan", "a", "b"}[rng.IntN(4)])
			lo.AppendFloat(noise)
			hi.AppendFloat(-noise)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return tab
}

var canaryQuery = engine.Query{Table: "canary", GroupBy: []string{"g"}, Parallelism: 2, Aggs: []engine.AggSpec{
	{Func: engine.AggMin, Column: "lo"}, {Func: engine.AggMax, Column: "hi"},
	{Func: engine.AggMax, Column: "lo"}, {Func: engine.AggMin, Column: "hi"},
	{Func: engine.AggSum, Column: "lo"}, {Func: engine.AggAvg, Column: "hi"},
}}

// renderBits renders a result's floats as bit patterns, so −0 ≠ +0.
func renderBits(res *engine.Result) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		sb.WriteString(row[0].S)
		for _, v := range row[1:] {
			fmt.Fprintf(&sb, " %x", math.Float64bits(v.F))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestLayoutEquivalence: for workers {1,2,4}, replicated ≡ placed rf 1
// ≡ placed rf 2 ≡ placed rf N ≡ solo bytes — before and after an append
// that straddles a placement boundary, and again with one worker gated
// off; under the replicated layout a worker that joins after the first
// query and the removal of another leave every remaining worker holding
// every table whole at the coordinator's hash, before and after the
// append. The row-order canary's MIN/MAX/SUM/AVG bits ≡ solo under
// every assignment the router can be pushed into: random workers
// gated, random fragments missing from random workers. In-process
// members, then the canary alone over two HTTP workers (replicated and
// placed rf 2). Inputs are seeded; a failure prints the seed.
func TestLayoutEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{1, 2} {
		rng := rand.New(rand.NewPCG(seed, 0x5eedb))
		rows := 2048 + rng.IntN(1500)
		// The delta runs past the next 1024-row boundary: it grows the
		// last placement and gives birth to at least one more.
		delta := (1024 - rows%1024) + 1 + rng.IntN(600)
		query := fmt.Sprintf("SELECT * FROM orders WHERE category = '%s'",
			[]string{"Furniture", "Technology", "Office Supplies"}[rng.IntN(3)])

		solo := newDB(t, rows)
		canary := canaryTable(t, rng)
		if err := solo.RegisterTable(canary); err != nil {
			t.Fatal(err)
		}
		canaryRes, err := solo.Backend().Run(ctx, &canaryQuery)
		if err != nil {
			t.Fatal(err)
		}
		wantCanary := renderBits(canaryRes)
		var want [2]string
		for stage := range want {
			if stage == 1 {
				appendOrders(t, solo, delta)
			}
			res, err := solo.RecommendSQL(ctx, query, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			want[stage] = render(res)
		}

		for _, n := range []int{1, 2, 4} {
			for _, lc := range []layoutCase{{"replicated", 0}, {"placed-rf1", 1}, {"placed-rf2", 2}, {"placed-rfN", n}} {
				name := fmt.Sprintf("seed=%d/workers=%d/%s", seed, n, lc.name)
				var db *seedb.DB
				var b *seedb.ClusterBackend
				var members []*seedb.MemberShard
				cfg := seedb.ClusterConfig{Replication: lc.rf, PlacementChunks: 1, Cooldown: time.Hour}
				if lc.rf == 0 {
					db, b, members = replicateManual(t, rows, n, cfg)
				} else {
					db, b, members = placeManual(t, rows, n, cfg)
				}
				check := func(stage string, want string) {
					t.Helper()
					res, err := db.RecommendSQL(ctx, query, testOptions())
					if err != nil {
						t.Fatalf("%s %s: %v", name, stage, err)
					}
					if render(res) != want {
						t.Fatalf("%s %s (rows=%d delta=%d %q): bytes differ from solo", name, stage, rows, delta, query)
					}
				}
				check("cold", want[0])
				if lc.rf == 0 {
					late := seedb.NewMemberShard("late")
					if _, _, err := b.AddWorker(ctx, late); err != nil {
						t.Fatal(err)
					}
					members = append(members, late)
					assertHoldEveryTable(t, name, db, members)
					check("after a join", want[0])
					if _, _, err := b.RemoveWorker(ctx, members[0].ID()); err != nil {
						t.Fatal(err)
					}
					members = members[1:]
					assertHoldEveryTable(t, name, db, members)
					check("after a leave", want[0])
				}
				appendOrders(t, db, delta)
				check("after append", want[1])
				if lc.rf == 0 {
					assertHoldEveryTable(t, name, db, members)
				}
				if c := b.Counters(); c.Failovers != 0 || c.Mismatches != 0 || c.Retries != 0 || c.ShardCalls == 0 {
					t.Fatalf("%s: healthy fleet degraded or idle: %+v", name, c)
				}

				// The canary joins late: a rebalance ships it. Each trial
				// heals the fleet, then breaks it at random.
				if err := db.RegisterTable(canary.Clone("canary")); err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < 4; trial++ {
					for _, m := range members {
						m.SetGate(nil)
					}
					b.HealthCheck(ctx)
					if rep, err := b.Rebalance(ctx); err != nil || len(rep.Errors) != 0 {
						t.Fatalf("%s: rebalance: %v %+v", name, err, rep)
					}
					broken := ""
					for _, m := range members {
						if trial > 0 && rng.IntN(3) == 0 {
							m.SetGate(killExec)
							broken += " gated:" + m.ID()
						}
						held := heldLike(t, m, "canary")
						for k := rng.IntN(3); trial > 0 && k > 0 && len(held) > 0; k-- {
							f := held[rng.IntN(len(held))]
							dropBehindBack(t, m, f) // a 404 mid-exchange
							broken += " dropped:" + m.ID() + "/" + f
						}
					}
					res, err := b.Run(ctx, &canaryQuery)
					if err != nil {
						t.Fatalf("%s canary trial %d (%s): %v", name, trial, broken, err)
					}
					if got := renderBits(res); got != wantCanary {
						t.Fatalf("%s canary trial %d (broken:%s): bits differ from solo — a fold left row order:\n%s\nvs\n%s", name, trial, broken, got, wantCanary)
					}
				}

				for _, m := range members {
					m.SetGate(nil)
				}
				b.HealthCheck(ctx)
				members[rng.IntN(n)].SetGate(func(string) error { return errKilled })
				check("one worker down", want[1])
			}
		}

		// The canary once more over two HTTP workers, so the binary
		// frame is on the path of every −0 and NaN.
		for _, rf := range []int{0, 2} {
			name := fmt.Sprintf("seed=%d/http/rf=%d", seed, rf)
			b := httpFleet(t, rf, func() *engine.Table { return canary.Clone("canary") })
			res, err := b.Run(ctx, &canaryQuery)
			if err != nil {
				t.Fatalf("%s canary: %v", name, err)
			}
			if got := renderBits(res); got != wantCanary {
				t.Fatalf("%s canary: bits differ from solo:\n%s\nvs\n%s", name, got, wantCanary)
			}
			cleanFleet(t, name, b)
		}
	}
}

// assertHoldEveryTable fails unless each member holds exactly db's
// tables, each whole at the coordinator's content hash.
func assertHoldEveryTable(t *testing.T, name string, db *seedb.DB, members []*seedb.MemberShard) {
	t.Helper()
	want := tableHashes(t, db)
	for _, m := range members {
		inv, err := m.Store().Inventory()
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for table, st := range inv {
			got[table] = st.ContentHash
		}
		if !maps.Equal(got, want) {
			t.Fatalf("%s: %s holds %v, want every table %v", name, m.ID(), got, want)
		}
	}
}

// heldLike lists, sorted, the placements and whole tables m holds whose
// names start with prefix.
func heldLike(t *testing.T, m *seedb.MemberShard, prefix string) []string {
	t.Helper()
	inv, err := m.Store().Inventory()
	if err != nil {
		t.Fatal(err)
	}
	var held []string
	for name := range inv {
		if strings.HasPrefix(name, prefix) {
			held = append(held, name)
		}
	}
	slices.Sort(held)
	return held
}

// dropBehindBack removes a placement or whole table from m without the
// coordinator knowing.
func dropBehindBack(t *testing.T, m *seedb.MemberShard, name string) {
	t.Helper()
	if err := m.Store().Drop(name); err != nil {
		t.Fatal(err)
	}
}

// appendOrders appends n generated rows to orders through DB.Append —
// the path that routes through Backend.Ingest on a coordinator.
func appendOrders(t *testing.T, db *seedb.DB, n int) {
	t.Helper()
	tb, err := db.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	typed, err := tb.ParseRows(ingestRows(n))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append("orders", typed); err != nil {
		t.Fatal(err)
	}
}

// TestFullReplicationIsPlacementWithRFN pins the property the two
// layouts meet at: placed with rf = N leaves every worker holding every
// row of every table, and replicated AddWorker on an empty worker ships
// each table exactly once — a second AddWorker ships nothing.
func TestFullReplicationIsPlacementWithRFN(t *testing.T) {
	ctx := context.Background()
	const rows, n = 3500, 3
	db, _, members := placeManual(t, rows, n, seedb.ClusterConfig{Replication: n, PlacementChunks: 1})
	for _, m := range members {
		// Each table is one segment: the worker's catalog holds one table
		// per source table, named after its first placement.
		if got := m.Executor().Catalog().TableNames(); len(got) != len(db.Tables()) {
			t.Fatalf("%s holds %v, want one segment per table %v", m.ID(), got, db.Tables())
		}
		held := map[string]int{}
		for _, name := range m.Executor().Catalog().TableNames() {
			table, _, ok := strings.Cut(name, "__p")
			if !ok {
				t.Fatalf("%s holds %q, which is not a fragment", m.ID(), name)
			}
			ft, err := m.Executor().Catalog().Table(name)
			if err != nil {
				t.Fatal(err)
			}
			held[table] += ft.NumRows()
		}
		for _, table := range db.Tables() {
			if held[table] != rows {
				t.Fatalf("%s holds %d rows of %s, want all %d", m.ID(), held[table], table, rows)
			}
		}
	}

	rdb := newDB(t, rows)
	rb := rdb.ShardRemote(nil, 0, seedb.ClusterConfig{})
	joiner := seedb.NewMemberShard("joiner")
	var syncs atomic.Int32
	joiner.SetGate(func(op string) error {
		if op == "sync" {
			syncs.Add(1)
		}
		return nil
	})
	rep, added, err := rb.AddWorker(ctx, joiner)
	if err != nil || !added {
		t.Fatalf("join failed: added=%v err=%v", added, err)
	}
	if rep.Shipped != len(rdb.Tables()) || rep.PerWorker["joiner"] != len(rdb.Tables()) || len(rep.Errors) != 0 {
		t.Fatalf("an empty worker should be shipped each table exactly once: %+v", rep)
	}
	for name, h := range tableHashes(t, rdb) {
		wt, err := joiner.Executor().Catalog().Table(name)
		if err != nil {
			t.Fatalf("joiner lacks %s", name)
		}
		if wh, _ := wt.ContentHash(); wh != h {
			t.Fatalf("joiner's %s differs from the coordinator's", name)
		}
	}
	rep2, added, err := rb.AddWorker(ctx, joiner)
	if err != nil || added {
		t.Fatalf("re-announce: added=%v err=%v", added, err)
	}
	if rep2.Shipped != 0 || rep2.Dropped != 0 || len(rep2.Errors) != 0 {
		t.Fatalf("a second AddWorker should ship nothing: %+v", rep2)
	}
	if got := syncs.Load(); int(got) != len(rdb.Tables()) {
		t.Fatalf("joiner received %d syncs, want %d", got, len(rdb.Tables()))
	}
}
