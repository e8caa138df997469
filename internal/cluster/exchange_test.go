package cluster_test

// The exchange: one request per worker per scan. These tests pin the
// routing — how many exchanges a scan costs healthy, with a worker
// dying, with an owner gone, with one fragment diverged — the
// connection reuse underneath it, and BenchmarkPlacedScatter.

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seedb"
	"seedb/internal/cluster"
	"seedb/internal/engine"
	"seedb/internal/frontend"
)

// spyShard is a MemberShard that keeps every exchange it was asked for
// (gated ones included) and what it answered.
type spyShard struct {
	*cluster.MemberShard
	mu   sync.Mutex
	reqs []*cluster.ShardRequest
	resp []*cluster.ShardResponse // nil where the exchange failed
}

func (s *spyShard) ExecPartials(ctx context.Context, req *cluster.ShardRequest) (*cluster.ShardResponse, error) {
	resp, err := s.MemberShard.ExecPartials(ctx, req)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reqs = append(s.reqs, req)
	s.resp = append(s.resp, resp)
	return resp, err
}

// take returns and forgets the exchanges seen so far.
func (s *spyShard) take() ([]*cluster.ShardRequest, []*cluster.ShardResponse) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reqs, resp := s.reqs, s.resp
	s.reqs, s.resp = nil, nil
	return reqs, resp
}

const exchangeRows = 50_000 // 13 placements of 4 chunks

// placeSpies stands up the placed layout over n spy members on the 50k
// Superstore table, default placement size.
func placeSpies(tb testing.TB, n, rf int, cfg seedb.ClusterConfig) (*seedb.DB, *seedb.ClusterBackend, []*spyShard) {
	tb.Helper()
	ctx := context.Background()
	db := seedb.Open()
	if err := db.RegisterTable(seedb.SuperstoreTable("orders", exchangeRows, 1)); err != nil {
		tb.Fatal(err)
	}
	cfg.Replication = rf
	b, err := db.PlaceMembers(ctx, 0, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	spies := make([]*spyShard, n)
	for i := range spies {
		spies[i] = &spyShard{MemberShard: seedb.NewMemberShard(fmt.Sprintf("spy-%d", i))}
		if _, _, err := b.AddWorker(ctx, spies[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return db, b, spies
}

var exchangeSets = []engine.GroupingSet{
	{By: []string{"region"}, Aggs: []engine.AggSpec{{Func: engine.AggSum, Column: "sales"}, {Func: engine.AggCount}}},
	{By: []string{"category", "segment"}, Aggs: []engine.AggSpec{{Func: engine.AggAvg, Column: "profit"}, {Func: engine.AggMin, Column: "sales"}}},
}

func exchangeQuery() *engine.Query {
	return &engine.Query{Table: "orders", Where: engine.Eq("category", engine.String("Furniture")), Parallelism: 2}
}

// soloScan is the single-node answer to RunSharedScan(exchangeQuery(),
// exchangeSets), rendered.
func soloScan(t *testing.T) string {
	t.Helper()
	db := seedb.Open()
	if err := db.RegisterTable(seedb.SuperstoreTable("orders", exchangeRows, 1)); err != nil {
		t.Fatal(err)
	}
	res, err := db.Backend().RunSharedScan(context.Background(), exchangeQuery(), exchangeSets)
	if err != nil {
		t.Fatal(err)
	}
	return renderResults(res)
}

func renderResults(res []*engine.Result) string {
	var sb strings.Builder
	for _, r := range res {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func killExec(op string) error {
	if op == "exec" {
		return errKilled
	}
	return nil
}

// TestOneExchangePerWorkerPerScan: placed rf=2 over two members, 13
// placements. A scan is two exchanges — one per worker, each answered
// with one pre-merged run — whether it is a shared scan or a plain Run;
// a worker dying costs its retry and one re-cut exchange on the
// survivor, no failover, same bytes.
func TestOneExchangePerWorkerPerScan(t *testing.T) {
	ctx := context.Background()
	_, b, spies := placeSpies(t, 2, 2, seedb.ClusterConfig{Cooldown: time.Hour})
	want := soloScan(t)

	before := b.Counters()
	res, err := b.RunSharedScan(ctx, exchangeQuery(), exchangeSets)
	if err != nil {
		t.Fatal(err)
	}
	if renderResults(res) != want {
		t.Fatal("placed shared scan differs from solo")
	}
	if c := b.Counters(); c.ShardCalls-before.ShardCalls != 2 || c.RangeCalls != c.ShardCalls || c.Retries != 0 || c.Failovers != 0 {
		t.Fatalf("a shared scan over 2 workers must be exactly 2 exchanges: %+v", c)
	}
	fragments := 0
	for _, s := range spies {
		reqs, resps := s.take()
		if len(reqs) != 1 || len(resps[0].Runs) != 1 || len(resps[0].Failed) != 0 || len(resps[0].Runs[0].Partials) != len(exchangeSets) {
			t.Fatalf("%s: want one exchange answered with one run of %d partials, got %d exchanges: %+v", s.ID(), len(exchangeSets), len(reqs), resps)
		}
		fragments += len(reqs[0].Fragments)
	}
	if fragments != 13 {
		t.Fatalf("the two exchanges carried %d fragments, want all 13", fragments)
	}
	for _, s := range spies {
		if _, scans, _ := s.Executor().Stats().Snapshot(); scans != 1 {
			t.Fatalf("%s scanned %d times for its one exchange, want 1: it holds orders as one segment", s.ID(), scans)
		}
	}
	for _, st := range b.Status() {
		if st.Execs != 1 {
			t.Fatalf("Status().Execs counts exchanges, want 1: %+v", st)
		}
	}

	before = b.Counters()
	q := exchangeQuery()
	q.GroupBy, q.Aggs = exchangeSets[0].By, exchangeSets[0].Aggs
	if _, err := b.Run(ctx, q); err != nil {
		t.Fatal(err)
	}
	if c := b.Counters(); c.ShardCalls-before.ShardCalls != 2 {
		t.Fatalf("a Run over 2 workers must be exactly 2 exchanges, got %d", c.ShardCalls-before.ShardCalls)
	}
	spies[0].take()
	spies[1].take()

	// spy-1 dies: its exchange fails, is retried once, and its
	// fragments — only those — go to spy-0 in one more exchange.
	spies[1].SetGate(killExec)
	before = b.Counters()
	res, err = b.RunSharedScan(ctx, exchangeQuery(), exchangeSets)
	if err != nil {
		t.Fatal(err)
	}
	if renderResults(res) != want {
		t.Fatal("re-cut shared scan differs from solo")
	}
	c := b.Counters()
	if c.ShardCalls-before.ShardCalls != 4 || c.Retries-before.Retries != 1 || c.Failovers != 0 {
		t.Fatalf("want 2 exchanges + 1 retry + 1 re-cut, no failover: %+v -> %+v", before, c)
	}
	dead, _ := spies[1].take()
	live, liveResp := spies[0].take()
	if len(dead) != 2 || len(live) != 2 {
		t.Fatalf("want 2 attempts on the dead worker and 2 exchanges on the survivor, got %d and %d", len(dead), len(live))
	}
	if len(live[1].Fragments) != len(dead[0].Fragments) || live[1].Fragments[0].Table != dead[0].Fragments[0].Table {
		t.Fatalf("the re-cut exchange must carry exactly the dead worker's %d fragments, got %d", len(dead[0].Fragments), len(live[1].Fragments))
	}
	if len(liveResp[1].Runs) != 1 {
		t.Fatalf("the re-cut fragments are row-adjacent: want one run, got %d", len(liveResp[1].Runs))
	}
}

// TestOneExchangePerWorkerPerRecommend: a default-options
// recommendation is one backend call — the target count rides the
// plan's shared scan — so over two HTTP workers it costs exactly two
// exchanges, replicated or placed rf=2, with the single-node bytes.
func TestOneExchangePerWorkerPerRecommend(t *testing.T) {
	ctx := context.Background()
	const rows = 3000
	queries := []string{testQuery, "SELECT * FROM orders WHERE category = 'Furniture'"}
	check := func(t *testing.T, db *seedb.DB, b *seedb.ClusterBackend) {
		t.Helper()
		for _, sql := range queries {
			before := b.Counters()
			got, err := db.RecommendSQL(ctx, sql, seedb.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if c := b.Counters(); c.ShardCalls-before.ShardCalls != 2 || c.Retries != 0 || c.Failovers != 0 || c.Mismatches != 0 {
				t.Fatalf("%s: want exactly 2 exchanges: %+v -> %+v", sql, before, c)
			}
			want, err := newDB(t, rows).RecommendSQL(ctx, sql, seedb.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if render(got) != render(want) {
				t.Fatalf("%s: cluster result differs from single node", sql)
			}
		}
	}
	t.Run("replicated-http", func(t *testing.T) {
		w1, _ := startWorker(t, rows)
		w2, _ := startWorker(t, rows)
		db := newDB(t, rows)
		check(t, db, db.ShardRemote([]string{w1.URL, w2.URL}, 10*time.Second, seedb.ClusterConfig{}))
	})
	t.Run("placed-http", func(t *testing.T) {
		w1, _ := startEmptyWorker(t)
		w2, _ := startEmptyWorker(t)
		db := newDB(t, rows)
		b, err := db.PlaceRemote(ctx, []string{w1.URL, w2.URL}, 10*time.Second, placementConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		check(t, db, b)
	})
}

// TestOnlyOwnerDownRunsItsFragmentsLocally: rf=1, so a fragment has one
// owner; with one worker dead exactly its fragments run on the
// coordinator (one failover each, their rows and no others read
// locally) and the other workers are not asked for anything more.
func TestOnlyOwnerDownRunsItsFragmentsLocally(t *testing.T) {
	ctx := context.Background()
	db, b, spies := placeSpies(t, 4, 1, seedb.ClusterConfig{Cooldown: time.Hour})
	if _, err := b.RunSharedScan(ctx, exchangeQuery(), exchangeSets); err != nil {
		t.Fatal(err)
	}
	// The victim: the worker with the fewest fragments (but some).
	var victim *spyShard
	var owned []cluster.ShardFragment
	for _, s := range spies {
		if reqs, _ := s.take(); len(reqs) == 1 && (victim == nil || len(reqs[0].Fragments) < len(owned)) {
			victim, owned = s, reqs[0].Fragments
		}
	}
	if victim == nil {
		t.Fatal("no worker was asked for anything")
	}
	ownedRows := 0
	for _, f := range owned {
		ownedRows += f.RowHi - f.RowLo
	}
	victim.SetGate(killExec)

	before := b.Counters()
	db.Engine().Executor().Stats().Reset()
	res, err := b.RunSharedScan(ctx, exchangeQuery(), exchangeSets)
	if err != nil {
		t.Fatal(err)
	}
	if renderResults(res) != soloScan(t) {
		t.Fatal("local failover differs from solo")
	}
	c := b.Counters()
	if got := c.Failovers - before.Failovers; got != int64(len(owned)) {
		t.Fatalf("want one failover per fragment of the dead owner (%d), got %d", len(owned), got)
	}
	if _, _, rows := db.Engine().Executor().Stats().Snapshot(); rows != int64(ownedRows) {
		t.Fatalf("the coordinator read %d rows, want exactly the dead owner's %d", rows, ownedRows)
	}
	if got, want := c.ShardCalls-before.ShardCalls, int64(len(spies)+1); got != want || c.Retries-before.Retries != 1 {
		t.Fatalf("want one exchange per worker plus the dead one's retry (%d), got %d (retries %d)", want, got, c.Retries-before.Retries)
	}
}

// TestMismatchRecutsOneFragment: one fragment diverged on the worker it
// is routed to. That fragment alone is refused (409), re-cut onto the
// other owner in a one-fragment exchange, and only its hold is cleared;
// everything else the worker answered is kept.
func TestMismatchRecutsOneFragment(t *testing.T) {
	ctx := context.Background()
	db, b, spies := placeSpies(t, 2, 2, seedb.ClusterConfig{Cooldown: time.Hour})
	if _, err := b.RunSharedScan(ctx, exchangeQuery(), exchangeSets); err != nil {
		t.Fatal(err)
	}
	reqs, _ := spies[1].take()
	spies[0].take()
	// Corrupt the middle fragment of spy-1's share behind the
	// coordinator's back: its last row replaced, inside the segment
	// that holds the whole share.
	bad := reqs[0].Fragments[len(reqs[0].Fragments)/2].Table
	corruptPlacement(t, db, b, spies[1].MemberShard, bad)

	before := b.Counters()
	res, err := b.RunSharedScan(ctx, exchangeQuery(), exchangeSets)
	if err != nil {
		t.Fatal(err)
	}
	if renderResults(res) != soloScan(t) {
		t.Fatal("mismatch re-cut differs from solo")
	}
	c := b.Counters()
	if c.ShardCalls-before.ShardCalls != 3 || c.Mismatches-before.Mismatches != 1 || c.Retries != 0 || c.Failovers != 0 {
		t.Fatalf("want 2 exchanges + a one-fragment re-cut, 1 mismatch, no retry, no failover: %+v", c)
	}
	_, resp1 := spies[1].take()
	if len(resp1) != 1 || len(resp1[0].Failed) != 1 || resp1[0].Failed[0].Status != http.StatusConflict || len(resp1[0].Runs) != 2 {
		t.Fatalf("the diverged fragment splits spy-1's share into two runs around one 409: %+v", resp1)
	}
	reqs0, _ := spies[0].take()
	if len(reqs0) != 2 || len(reqs0[1].Fragments) != 1 || reqs0[1].Fragments[0].Table != bad {
		t.Fatalf("the re-cut exchange must carry %s alone: %+v", bad, reqs0)
	}
	dump, err := b.Dump()
	if err != nil {
		t.Fatal(err)
	}
	unheld := 0
	for _, tp := range dump.Tables {
		for _, p := range tp.Placements {
			for _, o := range p.Owners {
				if !o.Held {
					unheld++
					if p.Fragment != bad || o.Worker != spies[1].ID() {
						t.Fatalf("hold cleared for %s on %s, want only %s on %s", p.Fragment, o.Worker, bad, spies[1].ID())
					}
				}
			}
		}
	}
	if unheld != 1 {
		t.Fatalf("want exactly one cleared hold, got %d", unheld)
	}
}

// connCounter counts the connections a test server accepts.
type connCounter struct{ opened atomic.Int64 }

func (c *connCounter) hook(_ net.Conn, st http.ConnState) {
	if st == http.StateNew {
		c.opened.Add(1)
	}
}

// startCountingWorker is startEmptyWorker with a ConnState hook.
func startCountingWorker(tb testing.TB) (*httptest.Server, *connCounter) {
	tb.Helper()
	cc := &connCounter{}
	hs := httptest.NewUnstartedServer(frontend.New(seedb.Open(), nil, log.New(io.Discard, "", 0)))
	hs.Config.ConnState = cc.hook
	hs.Start()
	tb.Cleanup(hs.Close)
	return hs, cc
}

// TestRemoteShardReusesConnections: exchanges with a worker ride kept-
// alive connections — what a coordinator opens is bounded by how many
// queries it runs at once, not by how many it has run. (On
// http.DefaultTransport, two idle connections per host, every scan past
// the second concurrent one dialled afresh.)
func TestRemoteShardReusesConnections(t *testing.T) {
	ctx := context.Background()
	db := seedb.Open()
	if err := db.RegisterTable(seedb.SuperstoreTable("orders", exchangeRows, 1)); err != nil {
		t.Fatal(err)
	}
	w0, c0 := startCountingWorker(t)
	w1, c1 := startCountingWorker(t)
	b, err := db.PlaceRemote(ctx, []string{w0.URL, w1.URL}, 30*time.Second, seedb.ClusterConfig{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	scan := func() error {
		_, err := b.RunSharedScan(ctx, exchangeQuery(), exchangeSets)
		return err
	}
	if err := scan(); err != nil { // bootstrap and the first scan dial what they need
		t.Fatal(err)
	}
	opened := func() int64 { return c0.opened.Load() + c1.opened.Load() }

	base := opened()
	for i := 0; i < 20; i++ {
		if err := scan(); err != nil {
			t.Fatal(err)
		}
	}
	if got := opened() - base; got != 0 {
		t.Fatalf("20 sequential scans opened %d new connections, want 0", got)
	}

	const concurrent = 8
	for round := 0; round < 3; round++ {
		if round == 1 {
			base = opened() // round 0 may dial up to the concurrency
		}
		errs := make([]error, concurrent)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = scan()
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// Rounds 1 and 2 may still dial when they happen to overlap more
	// than round 0 did, but never past one connection per query in
	// flight per worker.
	if got, limit := opened()-base, int64(2*concurrent); got > limit {
		t.Fatalf("16 concurrent scans after warm-up opened %d connections, want at most %d", got, limit)
	}
	if c := b.Counters(); c.Failovers != 0 || c.Retries != 0 {
		t.Fatalf("scans were not served by the workers: %+v", c)
	}
}

// countingBody counts response bytes on /api/shard/exec.
type countingBody struct {
	inner http.Handler
	bytes *atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	w.n.Add(int64(len(p)))
	return w.ResponseWriter.Write(p)
}

func (c *countingBody) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/api/shard/exec" {
		w = countingWriter{w, c.bytes}
	}
	c.inner.ServeHTTP(w, r)
}

// BenchmarkPlacedScatter is one default-options recommendation (the
// default plan's sets plus the target count, one shared scan, one
// backend call) on the 50k Superstore table placed rf=2 over two
// workers — in-process members, then real HTTP workers — and, as
// never-seen, a fresh predicate every op over HTTP workers with their
// partial stores on, placed and sharded: what cluster_scatter's
// companion and query classes do. exchanges/op is what
// cluster.placed.rpc_per_op measures in benchmark/; scans/exchange is
// read from the workers' executor stats. CI fails when a run exceeds 1
// exchange per worker, when a worker scans more than once per exchange
// (rf = workers, so each holds the table as one segment), or when the
// HTTP workers' frames exceed maxRespBytes per op (one physical state
// per accumulator in a binary frame: about 52k; JSON of logical state
// was 475k).
func BenchmarkPlacedScatter(b *testing.B) {
	ctx := context.Background()
	const workers, maxRespBytes = 2, 95_000
	same := func(int) string { return "SELECT * FROM orders WHERE category = 'Furniture'" }
	fresh := func(i int) string { return fmt.Sprintf("SELECT * FROM orders WHERE sales > %g", 20+float64(i)/1000) }
	run := func(b *testing.B, db *seedb.DB, be *seedb.ClusterBackend, sql func(int) string, scans func() int64, respBytes *atomic.Int64) {
		if _, err := db.RecommendSQL(ctx, sql(-1), seedb.DefaultOptions()); err != nil { // statistics, hashes
			b.Fatal(err)
		}
		before, scans0 := be.Counters(), scans()
		respBytes.Store(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.RecommendSQL(ctx, sql(i), seedb.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		c := be.Counters()
		if c.Failovers != 0 || c.Retries != 0 || c.Mismatches != 0 {
			b.Fatalf("degraded: %+v", c)
		}
		exchanges := c.ShardCalls - before.ShardCalls
		perOp := float64(exchanges) / float64(b.N)
		b.ReportMetric(perOp, "exchanges/op")
		if perOp > workers {
			b.Fatalf("%.1f exchanges/op, want at most 1 per worker (%d)", perOp, workers)
		}
		perExchange := float64(scans()-scans0) / float64(exchanges)
		b.ReportMetric(perExchange, "scans/exchange")
		if perExchange > 1 {
			b.Fatalf("%.2f worker scans per exchange, want 1", perExchange)
		}
		if n := respBytes.Load(); n > 0 {
			perOp := float64(n) / float64(b.N)
			b.ReportMetric(perOp, "resp-bytes/op")
			if perOp > maxRespBytes {
				b.Fatalf("%.0f response bytes/op, want at most %d", perOp, maxRespBytes)
			}
		}
	}
	// fleet stands a coordinator up over HTTP workers: empty ones it
	// places the table on, or full replicas it shards across.
	fleet := func(b *testing.B, placed bool) (*seedb.DB, *seedb.ClusterBackend, func() int64, *atomic.Int64) {
		db := seedb.Open()
		if err := db.RegisterTable(seedb.SuperstoreTable("orders", exchangeRows, 1)); err != nil {
			b.Fatal(err)
		}
		var urls []string
		var wdbs []*seedb.DB
		respBytes := new(atomic.Int64)
		for i := 0; i < workers; i++ {
			wdb := seedb.Open()
			if !placed {
				if err := wdb.RegisterTable(seedb.SuperstoreTable("orders", exchangeRows, 1)); err != nil {
					b.Fatal(err)
				}
			}
			hs := httptest.NewServer(&countingBody{inner: frontend.New(wdb, nil, log.New(io.Discard, "", 0)), bytes: respBytes})
			b.Cleanup(hs.Close)
			urls, wdbs = append(urls, hs.URL), append(wdbs, wdb)
		}
		var be *seedb.ClusterBackend
		if placed {
			var err error
			if be, err = db.PlaceRemote(ctx, urls, 30*time.Second, seedb.ClusterConfig{Replication: 2}); err != nil {
				b.Fatal(err)
			}
		} else {
			be = db.ShardRemote(urls, 30*time.Second, seedb.ClusterConfig{})
		}
		scans := func() (n int64) {
			for _, w := range wdbs {
				_, s, _ := w.ExecStats()
				n += s
			}
			return n
		}
		return db, be, scans, respBytes
	}
	b.Run("members", func(b *testing.B) {
		db, be, spies := placeSpies(b, workers, 2, seedb.ClusterConfig{})
		run(b, db, be, same, func() (n int64) {
			for _, s := range spies {
				_, scans, _ := s.Executor().Stats().Snapshot()
				n += scans
			}
			return n
		}, new(atomic.Int64))
	})
	b.Run("http", func(b *testing.B) {
		db, be, scans, resp := fleet(b, true)
		run(b, db, be, same, scans, resp)
	})
	b.Run("never-seen/placed", func(b *testing.B) {
		db, be, scans, resp := fleet(b, true)
		run(b, db, be, fresh, scans, resp)
	})
	b.Run("never-seen/sharded", func(b *testing.B) {
		db, be, scans, resp := fleet(b, false)
		run(b, db, be, fresh, scans, resp)
	})
}
