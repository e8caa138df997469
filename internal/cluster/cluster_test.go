package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"seedb"
	"seedb/internal/cluster"
	"seedb/internal/engine"
	"seedb/internal/frontend"
)

// newDB builds a deterministic instance with the synthetic demo table;
// every node of a test cluster loads identical data.
func newDB(t *testing.T, rows int) *seedb.DB {
	t.Helper()
	db := seedb.Open()
	syn, _, err := seedb.SyntheticTable(seedb.DefaultSyntheticConfig("synthetic", rows, 42))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable(syn); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterTable(seedb.SuperstoreTable("orders", rows, 42)); err != nil {
		t.Fatal(err)
	}
	return db
}

func testOptions() seedb.Options {
	opts := seedb.DefaultOptions()
	opts.K = 5
	opts.Parallelism = 2
	return opts
}

// render serializes a recommendation result with full float precision,
// so string equality is bit equality.
func render(res *seedb.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rows=%d\n", res.TargetRowCount)
	for _, s := range res.AllScores {
		fmt.Fprintf(&b, "%s\t%x\n", s.View, math.Float64bits(s.Utility))
	}
	return b.String()
}

const testQuery = "SELECT * FROM synthetic WHERE d0 = 'd0_v0'"

func httpPostJSON(url, body string) (string, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// startWorker runs a full seedb HTTP server (the worker role is just a
// plain server) over its own identically-loaded DB.
func startWorker(t *testing.T, rows int) (*httptest.Server, *seedb.DB) {
	t.Helper()
	db := newDB(t, rows)
	srv := frontend.New(db, nil, log.New(testWriter{t}, "worker: ", 0))
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return hs, db
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// TestRemoteClusterMatchesSingleNode: coordinator + two HTTP workers
// produce the same bytes as single-node execution, through the real
// wire format and worker handlers.
func TestRemoteClusterMatchesSingleNode(t *testing.T) {
	ctx := context.Background()
	w1, _ := startWorker(t, 3000)
	w2, _ := startWorker(t, 3000)

	coord := newDB(t, 3000)
	b := coord.ShardRemote([]string{w1.URL, w2.URL}, 10*time.Second, seedb.ClusterConfig{})
	got, err := coord.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}

	plain := newDB(t, 3000)
	want, err := plain.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatalf("remote cluster changed result bytes:\n%s\nvs\n%s", render(got), render(want))
	}
	c := b.Counters()
	if c.Scatters == 0 || c.ShardCalls == 0 {
		t.Fatalf("expected remote shard calls, got %+v", c)
	}
	if c.Failovers != 0 {
		t.Fatalf("healthy cluster must not fail over, got %+v", c)
	}
	for _, st := range b.Status() {
		if !st.Healthy {
			t.Fatalf("shard %s unexpectedly unhealthy", st.ID)
		}
	}
}

// TestWorkerFailover: a dead worker degrades to coordinator-local
// execution — same bytes, unhealthy shard, failovers counted.
func TestWorkerFailover(t *testing.T) {
	ctx := context.Background()
	w1, _ := startWorker(t, 3000)
	w2, _ := startWorker(t, 3000)

	coord := newDB(t, 3000)
	b := coord.ShardRemote([]string{w1.URL, w2.URL}, 5*time.Second, seedb.ClusterConfig{Cooldown: time.Hour})

	w2.Close() // worker dies before the first request

	got, err := coord.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain := newDB(t, 3000)
	want, err := plain.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatal("degraded execution changed result bytes")
	}
	c := b.Counters()
	if c.Failovers == 0 || c.Retries == 0 {
		t.Fatalf("expected retries then failover, got %+v", c)
	}
	unhealthy := 0
	for _, st := range b.Status() {
		if !st.Healthy {
			unhealthy++
		}
	}
	if unhealthy != 1 {
		t.Fatalf("expected exactly one unhealthy shard, got %d", unhealthy)
	}

	// Second query: the dead shard is cooling down (Cooldown: 1h), so
	// its ranges go straight to the degraded path without re-dialing
	// the corpse — its failure count must not move.
	failuresBefore := deadShardFailures(b)
	if _, err := coord.RecommendSQL(ctx, testQuery, testOptions()); err != nil {
		t.Fatal(err)
	}
	if after := deadShardFailures(b); after != failuresBefore {
		t.Fatalf("cooling-down shard was re-dialed: failures %d -> %d", failuresBefore, after)
	}
	if b.Counters().Failovers <= c.Failovers {
		t.Fatal("second query should have used the degraded path")
	}
}

func deadShardFailures(b *seedb.ClusterBackend) int64 {
	for _, st := range b.Status() {
		if !st.Healthy {
			return st.Failures
		}
	}
	return -1
}

// TestFingerprintMismatchDegrades: a worker loaded with different data
// is refused per-request (HTTP 409), not retried, and its ranges run
// locally — results stay correct.
func TestFingerprintMismatchDegrades(t *testing.T) {
	ctx := context.Background()
	w1, _ := startWorker(t, 3000)
	wBad, _ := startWorker(t, 2999) // one row off: different fingerprint

	coord := newDB(t, 3000)
	b := coord.ShardRemote([]string{w1.URL, wBad.URL}, 5*time.Second, seedb.ClusterConfig{})
	got, err := coord.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain := newDB(t, 3000)
	want, err := plain.RecommendSQL(ctx, testQuery, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatal("mismatch degradation changed result bytes")
	}
	c := b.Counters()
	if c.Mismatches == 0 || c.Failovers == 0 {
		t.Fatalf("expected mismatch + failover, got %+v", c)
	}
}

// TestShardRegistration: a coordinator accepts worker registration
// over HTTP and uses the new shard.
func TestShardRegistration(t *testing.T) {
	ctx := context.Background()
	coordDB := newDB(t, 2000)
	b := coordDB.ShardRemote(nil, 5*time.Second, seedb.ClusterConfig{})
	coordSrv := httptest.NewServer(frontend.New(coordDB, nil, log.New(testWriter{t}, "coord: ", 0)))
	t.Cleanup(coordSrv.Close)

	worker, _ := startWorker(t, 2000)

	// Register via the HTTP endpoint, exactly as `seedb -coordinator`
	// does at worker startup.
	resp, err := httpPostJSON(coordSrv.URL+"/api/shard/register", fmt.Sprintf(`{"url":%q}`, worker.URL))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, `"added":true`) {
		t.Fatalf("registration response: %s", resp)
	}
	if b.NumWorkers() != 1 {
		t.Fatalf("expected 1 worker after registration, got %d", b.NumWorkers())
	}
	got, err := coordDB.RecommendSQL(ctx, "SELECT * FROM synthetic WHERE d0 = 'd0_v0'", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if b.Counters().ShardCalls == 0 {
		t.Fatal("registered worker was never used")
	}
	plain := newDB(t, 2000)
	want, err := plain.RecommendSQL(ctx, "SELECT * FROM synthetic WHERE d0 = 'd0_v0'", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatal("registered-worker execution changed result bytes")
	}
}

// TestConcurrentShardedRecommends is the race-mode stress test for
// concurrent scatter-gather: many sessions hammering one placed
// backend over four members (plus a cache) must agree and stay
// race-clean.
func TestConcurrentShardedRecommends(t *testing.T) {
	ctx := context.Background()
	db := newDB(t, 3000)
	b, err := db.PlaceMembers(ctx, 4, placementConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	db.Serve(seedb.ServeConfig{})
	opts := testOptions()

	queries := []string{
		"SELECT * FROM synthetic WHERE d0 = 'd0_v0'",
		"SELECT * FROM synthetic WHERE d0 = 'd0_v1'",
		"SELECT * FROM orders WHERE category = 'Furniture'",
	}
	const workers = 12
	outs := make([]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := db.RecommendSQL(ctx, queries[i%len(queries)], opts)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = render(res)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for i := len(queries); i < workers; i++ {
		if outs[i] != outs[i%len(queries)] {
			t.Fatalf("concurrent sharded runs disagree for query %d", i%len(queries))
		}
	}
	if c := b.Counters(); c.ShardCalls == 0 || c.Failovers != 0 || c.Mismatches != 0 {
		t.Fatalf("want every task served by a member: %+v", c)
	}
}

// TestPredicateWireRoundTrip covers the frame form of predicates,
// including timestamp literals and nesting, through a request's bytes;
// the request stays json.Marshal-able (the benchmark sizes it that way).
func TestPredicateWireRoundTrip(t *testing.T) {
	cat := engine.NewCatalog()
	tb, err := engine.NewTable("t", engine.Schema{
		{Name: "s", Type: engine.TypeString},
		{Name: "n", Type: engine.TypeInt},
		{Name: "f", Type: engine.TypeFloat},
		{Name: "ts", Type: engine.TypeTime},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2014, 9, 1, 12, 30, 0, 0, time.UTC)
	for i := 0; i < 100; i++ {
		err := tb.AppendRow(
			engine.String(fmt.Sprintf("v%d", i%7)),
			engine.Int(int64(i)),
			engine.Float(float64(i)*1.37),
			engine.Time(base.Add(time.Duration(i)*time.Hour)),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Register(tb); err != nil {
		t.Fatal(err)
	}
	ex := engine.NewExecutor(cat)

	preds := []engine.Predicate{
		engine.Eq("s", engine.String("v1")),
		engine.Eq("s", engine.String("it's")),
		engine.Compare("f", engine.OpGt, engine.Float(42.42)),
		engine.In("n", engine.Int(1), engine.Int(2), engine.Int(3)),
		engine.Compare("ts", engine.OpGe, engine.Time(base.Add(50*time.Hour))),
		engine.And(engine.Compare("n", engine.OpLt, engine.Int(80)), engine.Or(engine.Eq("s", engine.String("v2")), engine.IsNotNull("f"))),
		engine.Not(engine.IsNull("s")),
	}
	ctx := context.Background()
	for _, p := range preds {
		q := &engine.Query{Table: "t", Where: p, GroupBy: []string{"s"},
			Aggs: []engine.AggSpec{{Func: engine.AggCount, Alias: "n"}, {Func: engine.AggSum, Column: "f", Alias: "sf", Filter: p}}}
		req, err := cluster.EncodeShardRequest(q, nil, "", 0, tb.NumRows(), 1)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if _, err := json.Marshal(req); err != nil {
			t.Fatalf("%v: a request must stay json.Marshal-able: %v", p, err)
		}
		frame, _ := req.MarshalBinary()
		var back cluster.ShardRequest
		if err := back.UnmarshalBinary(frame); err != nil {
			t.Fatalf("%v: unmarshal: %v", p, err)
		}
		dq, gsets, err := back.Decode(back.Fragments[0].Table)
		if err != nil {
			t.Fatalf("%v: decode: %v", p, err)
		}
		want, err := ex.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ex.RunSharedScan(ctx, dq, gsets)
		if err != nil {
			t.Fatal(err)
		}
		if want.String() != got[0].String() {
			t.Fatalf("predicate %v round-trip changed results:\n%s\nvs\n%s", p, got[0], want)
		}
	}
}
