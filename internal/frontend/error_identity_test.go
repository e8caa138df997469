package frontend

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"seedb"
)

// TestRecommendErrorIdentity: a predicate that names an unknown column
// or compares a column with a constant of the wrong type, and one that
// selects no rows, fail with the same error text and HTTP status on
// every path — solo, a placed coordinator over two
// HTTP workers, phased and sampled. The target count is read off the
// plan's first scan, so an empty target is only known after execution;
// a bad predicate is still rejected before anything is scanned, and
// never reaches a worker.
func TestRecommendErrorIdentity(t *testing.T) {
	ctx := context.Background()
	fresh := func() *seedb.DB {
		db := seedb.Open()
		if err := db.RegisterTable(seedb.SuperstoreTable("orders", 5_000, 42)); err != nil {
			t.Fatal(err)
		}
		return db
	}
	var workers []*seedb.DB
	var urls []string
	for range 2 {
		w := seedb.Open()
		srv := httptest.NewServer(New(w, nil, nil))
		defer srv.Close()
		workers = append(workers, w)
		urls = append(urls, srv.URL)
	}
	placed := fresh()
	placedBackend, err := placed.PlaceRemote(ctx, urls, 10*time.Second, seedb.PlacementConfig{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}

	phased, sampled := seedb.DefaultOptions(), seedb.DefaultOptions()
	phased.Phases = 4
	sampled.SampleFraction, sampled.SampleMinRows = 0.5, 0
	topologies := []struct {
		name string
		db   *seedb.DB
		opts seedb.Options
		body map[string]any // the same options on /api/recommend
	}{
		{"solo", fresh(), seedb.DefaultOptions(), nil},
		{"placed rf=2", placed, seedb.DefaultOptions(), nil},
		{"phases 4", fresh(), phased, map[string]any{"phases": 4}},
		{"sampled", fresh(), sampled, map[string]any{"sampleFraction": 0.5}},
	}

	// Library calls take the predicate as built; the SQL front end checks
	// types itself, so over HTTP a type mismatch is its error.
	const noColumn = `engine: table "orders" has no column "nosuch"`
	const empty = `core: query "category = 'NoSuch'" selects no rows; nothing to recommend`
	library := []struct {
		name, want string
		pred       seedb.Predicate
		invalid    bool
	}{
		{"unknown column", noColumn, seedb.Eq("nosuch", seedb.String("x")), true},
		{"type mismatch", `engine: cannot compare FLOAT column "sales" with STRING`, seedb.Eq("sales", seedb.String("x")), true},
		{"empty target", empty, seedb.Eq("category", seedb.String("NoSuch")), false},
	}
	overHTTP := []struct {
		name, want, where string
	}{
		{"unknown column", noColumn, "nosuch = 'x'"},
		{"type mismatch", `sql: cannot compare FLOAT column "sales" with STRING`, "sales = 'x'"},
		{"empty target", empty, "category = 'NoSuch'"},
	}

	// scans counts the table scans of a topology's every executor and
	// the cluster's exchanges.
	scans := func(db *seedb.DB) (n int64) {
		for _, d := range append([]*seedb.DB{db}, workers...) {
			_, s, _ := d.Engine().Executor().Stats().Snapshot()
			n += s
		}
		return n + placedBackend.Counters().ShardCalls
	}

	for _, tp := range topologies {
		srv := New(tp.db, nil, nil)
		for _, c := range library {
			before := scans(tp.db)
			_, err := tp.db.Recommend(ctx, "orders", c.pred, tp.opts)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s, %s: error %v, want %q", tp.name, c.name, err, c.want)
			}
			if c.invalid && scans(tp.db) != before {
				t.Errorf("%s, %s: an invalid predicate scanned or exchanged", tp.name, c.name)
			}
		}
		for _, c := range overHTTP {
			body := map[string]any{"sql": "SELECT * FROM orders WHERE " + c.where, "k": 3}
			for k, v := range tp.body {
				body[k] = v
			}
			w := postJSON(t, srv, "/api/recommend", body)
			var got map[string]string
			if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
				t.Fatalf("%s, %s: body %q: %v", tp.name, c.name, w.Body.String(), err)
			}
			if w.Code != http.StatusBadRequest || got["error"] != c.want {
				t.Errorf("%s, %s over HTTP: %d %q, want 400 %q", tp.name, c.name, w.Code, got["error"], c.want)
			}
		}
	}
	for _, st := range placedBackend.Status() {
		if !st.Healthy {
			t.Errorf("worker %s marked unhealthy by a query error", st.ID)
		}
	}
}
