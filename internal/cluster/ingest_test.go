package cluster_test

import (
	"context"
	"encoding/json"
	"log"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"seedb"
	"seedb/internal/cluster"
	"seedb/internal/frontend"
)

// ingestRows builds n valid loose-typed rows for the superstore orders
// table, the same wire shape /api/ingest accepts.
func ingestRows(n int) [][]any {
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{
			"East", "New York", "Corporate", "Furniture", "Tables",
			"Express", "11-Nov", 250.75 + float64(i), -20.5, float64(1 + i%4), 0.3,
		}
	}
	return rows
}

// TestClusterIngestReplicates: an append through the coordinator
// reaches every worker replica, all post-append content hashes agree,
// and subsequent distributed queries are byte-identical to a
// single-node scan of the grown table.
func TestClusterIngestReplicates(t *testing.T) {
	ctx := context.Background()
	w1, w1db := startWorker(t, 3000)
	w2, w2db := startWorker(t, 3000)

	coord := newDB(t, 3000)
	b := coord.ShardRemote([]string{w1.URL, w2.URL}, 10*time.Second, seedb.ClusterConfig{})

	const delta = 1200
	sum, err := b.Ingest(ctx, "orders", ingestRows(delta))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Appended != delta || sum.Rows != 3000+delta {
		t.Fatalf("ingest summary %+v", sum)
	}
	if len(sum.Shards) != 2 {
		t.Fatalf("expected 2 forwarded shards, got %d", len(sum.Shards))
	}
	for _, st := range sum.Shards {
		if !st.OK || st.Diverged || st.ContentHash != sum.ContentHash || st.Rows != sum.Rows {
			t.Fatalf("shard %s did not replicate cleanly: %+v (coordinator %s)", st.ID, st, sum.ContentHash)
		}
	}
	for _, wdb := range []*seedb.DB{w1db, w2db} {
		wt, err := wdb.Table("orders")
		if err != nil {
			t.Fatal(err)
		}
		if wt.NumRows() != 3000+delta {
			t.Fatalf("worker replica has %d rows, want %d", wt.NumRows(), 3000+delta)
		}
	}
	if c := b.Counters(); c.Ingests != 1 || c.IngestRows != delta {
		t.Fatalf("ingest counters %+v", c)
	}

	// Distributed query over the grown table == single-node over a
	// replica built the same way.
	q := "SELECT * FROM orders WHERE category = 'Furniture'"
	got, err := coord.RecommendSQL(ctx, q, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain := newDB(t, 3000)
	pt, _ := plain.Table("orders")
	typed, err := pt.ParseRows(ingestRows(delta))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Append(typed); err != nil {
		t.Fatal(err)
	}
	want, err := plain.RecommendSQL(ctx, q, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatalf("post-ingest distributed query differs from single-node:\n%s\nvs\n%s", render(got), render(want))
	}
	if c := b.Counters(); c.Failovers != 0 || c.Mismatches != 0 {
		t.Fatalf("healthy post-ingest cluster must not degrade: %+v", c)
	}
}

// awkwardRows is a batch for the orders table of n rows cycling
// through values a lossy append path bends: padded and empty strings,
// NaN, ±Inf, −0 and an INT beyond 2^53 — typed for DB.Append, and
// loose as a client sends them to /api/ingest (non-finite floats and
// the big INT as strings).
func awkwardRows(n int) ([][]seedb.Value, [][]any) {
	negZero := math.Copysign(0, -1)
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), negZero, 12.5}
	loose := []any{"NaN", "+Inf", "-Inf", negZero, 12.5}
	regions := []string{"  West ", "", "East"}
	typed := make([][]seedb.Value, n)
	wire := make([][]any, n)
	for i := range typed {
		f, region := i%len(floats), regions[i%len(regions)]
		qty := int64(1 + i%3)
		var wireQty any = float64(qty)
		if i%4 == 0 {
			qty = 1<<53 + 1
			wireQty = "9007199254740993"
		}
		typed[i] = []seedb.Value{seedb.String(region), seedb.String(""), seedb.String("Consumer"),
			seedb.String("Furniture"), seedb.String("Chairs"), seedb.String(" Standard"),
			seedb.String("04-Apr"), seedb.Float(floats[f]), seedb.Float(negZero), seedb.Int(qty), seedb.Float(floats[(f+1)%len(floats)])}
		wire[i] = []any{region, "", "Consumer", "Furniture", "Chairs", " Standard", "04-Apr",
			loose[f], negZero, wireQty, loose[(f+1)%len(loose)]}
	}
	return typed, wire
}

// TestDBAppendRoutesThroughCluster: DB.Append leaves the same table on
// every topology — solo, sharded in process, replicated over HTTP,
// placed in process and over HTTP — so a coordinator's content hash
// and its next recommendation are the solo ones, its workers applied
// every forward cleanly (bypassing them would permanently diverge the
// fleet), and /api/ingest of the same batch on a coordinator and on a
// plain node gives the same table again.
func TestDBAppendRoutesThroughCluster(t *testing.T) {
	ctx := context.Background()
	const base = 2000 // a 60-row batch grows placement 1 and births placement 2
	const q = "SELECT * FROM orders WHERE category = 'Furniture'"
	awkward, awkwardWire := awkwardRows(60)
	inputs := []struct {
		name string
		rows [][]seedb.Value
	}{
		{"one row", [][]seedb.Value{
			{seedb.String("West"), seedb.String("California"), seedb.String("Consumer"),
				seedb.String("Furniture"), seedb.String("Chairs"), seedb.String("Standard"),
				seedb.String("04-Apr"), seedb.Float(10.5), seedb.Float(1.25), seedb.Int(2), seedb.Float(0.1)},
		}},
		{"awkward values", awkward},
	}
	placeHTTP := func(db *seedb.DB) (*seedb.ClusterBackend, error) {
		w1, _ := startEmptyWorker(t)
		w2, _ := startEmptyWorker(t)
		return db.PlaceRemote(ctx, []string{w1.URL, w2.URL}, 10*time.Second, placementConfig(2))
	}
	topologies := []struct {
		name  string
		setup func(db *seedb.DB) (*seedb.ClusterBackend, error)
	}{
		{"replicated members", func(db *seedb.DB) (*seedb.ClusterBackend, error) {
			b, _ := replicateOnto(t, db, 2, seedb.ClusterConfig{})
			return b, nil
		}},
		{"ShardRemote", func(db *seedb.DB) (*seedb.ClusterBackend, error) {
			w, _ := startWorker(t, base)
			return db.ShardRemote([]string{w.URL}, 10*time.Second, seedb.ClusterConfig{}), nil
		}},
		{"PlaceMembers rf=2", func(db *seedb.DB) (*seedb.ClusterBackend, error) {
			return db.PlaceMembers(ctx, 2, placementConfig(2))
		}},
		{"PlaceRemote rf=2", placeHTTP},
	}
	hashOf := func(db *seedb.DB) string {
		tb, err := db.Table("orders")
		if err != nil {
			t.Fatal(err)
		}
		h, err := tb.ContentHash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	clean := func(name string, b *seedb.ClusterBackend) {
		t.Helper()
		if c := b.Counters(); c.Mismatches != 0 || c.Failovers != 0 {
			t.Fatalf("%s: the fleet degraded: %+v", name, c)
		}
		for _, st := range b.Status() {
			if !st.Healthy || st.Failures != 0 {
				t.Fatalf("%s: a worker was struck: %+v", name, st)
			}
		}
	}

	var soloHash string
	for _, in := range inputs {
		solo := newDB(t, base)
		total, err := solo.Append("orders", in.rows)
		if err != nil || total != base+len(in.rows) {
			t.Fatalf("%s: solo append: total %d, %v", in.name, total, err)
		}
		soloHash = hashOf(solo)
		want, err := solo.RecommendSQL(ctx, q, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range topologies {
			name := in.name + " on " + tp.name
			coord := newDB(t, base)
			b, err := tp.setup(coord)
			if err != nil {
				t.Fatal(err)
			}
			total, err := coord.Append("orders", in.rows)
			if err != nil || total != base+len(in.rows) {
				t.Fatalf("%s: total %d, %v", name, total, err)
			}
			if h := hashOf(coord); h != soloHash {
				t.Fatalf("%s: coordinator hash %s, solo %s", name, h, soloHash)
			}
			if c := b.Counters(); c.Ingests != 1 {
				t.Fatalf("%s: the append did not route through the coordinator: %+v", name, c)
			}
			clean(name, b)
			got, err := coord.RecommendSQL(ctx, q, testOptions())
			if err != nil {
				t.Fatal(err)
			}
			if render(got) != render(want) {
				t.Fatalf("%s: recommendation differs from solo:\n%s\nvs\n%s", name, render(got), render(want))
			}
			if b.Counters().ShardCalls == 0 {
				t.Fatalf("%s: the recommendation never reached a worker", name)
			}
			clean(name, b)
		}
	}

	// The awkward batch as JSON, through /api/ingest: a placed
	// coordinator over HTTP workers and a plain node hold the solo
	// table afterwards, and every owner applied its forward.
	coord := newDB(t, base)
	b, err := placeHTTP(coord)
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range []*seedb.DB{coord, newDB(t, base)} {
		hs := httptest.NewServer(frontend.New(node, nil, log.New(testWriter{t}, "ingest: ", 0)))
		body, err := json.Marshal(map[string]any{"table": "orders", "rows": awkwardWire, "verify": true})
		if err != nil {
			t.Fatal(err)
		}
		out, err := httpPostJSON(hs.URL+"/api/ingest", string(body))
		hs.Close()
		if err != nil {
			t.Fatal(err)
		}
		var resp cluster.IngestResponse
		if err := json.Unmarshal([]byte(out), &resp); err != nil {
			t.Fatalf("ingest response %q: %v", out, err)
		}
		if resp.ContentHash != soloHash || resp.Rows != base+len(awkwardWire) {
			t.Fatalf("/api/ingest: %s, solo hash %s", out, soloHash)
		}
		if (node == coord) != (len(resp.Shards) > 0) {
			t.Fatalf("/api/ingest: owner statuses %+v", resp.Shards)
		}
		for _, st := range resp.Shards {
			if !st.OK {
				t.Fatalf("/api/ingest: owner status %+v", st)
			}
		}
	}
	clean("/api/ingest", b)
}

// TestClusterIngestDivergenceDetected: a worker whose replica already
// drifted is flagged by the post-append ContentHash re-verification,
// marked unhealthy, and queries stay correct via the degraded path.
func TestClusterIngestDivergenceDetected(t *testing.T) {
	ctx := context.Background()
	wGood, _ := startWorker(t, 2000)
	wBad, _ := startWorker(t, 1999) // one row short: diverged before the append

	coord := newDB(t, 2000)
	b := coord.ShardRemote([]string{wGood.URL, wBad.URL}, 10*time.Second, seedb.ClusterConfig{Cooldown: time.Hour})

	sum, err := b.Ingest(ctx, "orders", ingestRows(300))
	if err != nil {
		t.Fatal(err)
	}
	var diverged, clean int
	for _, st := range sum.Shards {
		if st.Diverged {
			diverged++
		} else if st.OK {
			clean++
		}
	}
	if diverged != 1 || clean != 1 {
		t.Fatalf("expected exactly one diverged and one clean shard: %+v", sum.Shards)
	}
	if b.Counters().Mismatches == 0 {
		t.Fatal("divergence must be counted as a mismatch")
	}
	unhealthy := 0
	for _, st := range b.Status() {
		if !st.Healthy {
			unhealthy++
		}
	}
	if unhealthy != 1 {
		t.Fatalf("diverged shard must be unhealthy, got %d unhealthy", unhealthy)
	}

	// Queries keep succeeding (degraded path for the diverged shard)
	// and match a single-node replica with identical content.
	q := "SELECT * FROM orders WHERE category = 'Furniture'"
	got, err := coord.RecommendSQL(ctx, q, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain := newDB(t, 2000)
	pt, _ := plain.Table("orders")
	typed, _ := pt.ParseRows(ingestRows(300))
	if _, err := pt.Append(typed); err != nil {
		t.Fatal(err)
	}
	want, err := plain.RecommendSQL(ctx, q, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Fatal("post-divergence query changed result bytes")
	}
}
