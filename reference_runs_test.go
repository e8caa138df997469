package seedb_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"seedb"
	"seedb/internal/frontend"
)

// TestNeverSeenPredicatesMatchStoreFree: under the partial store a
// where-free plan keeps each grouping set's predicate-free accumulators
// in runs that every predicate on the table shares. A stream of
// never-seen predicates — each after the first finds those runs warm and
// its own run cold — then an append, a predicate that grows the shared
// runs, and a repeat whose own run the append left stale must answer
// byte for byte what an instance with no store answers: solo, phased,
// and placed rf=2 over two HTTP workers (whose stores hold the runs).
func TestNeverSeenPredicatesMatchStoreFree(t *testing.T) {
	ctx := context.Background()
	open := func(store bool) *seedb.DB {
		db := seedb.Open()
		if err := db.RegisterTable(seedb.SuperstoreTable("orders", 5_000, 3)); err != nil {
			t.Fatal(err)
		}
		if store {
			db.EnableIncremental(0)
		}
		return db
	}
	opts := seedb.DefaultOptions()
	opts.K = 1_000 // every scored view
	phased := opts
	phased.Phases = 4

	plain, plainPhased := open(false), open(false)
	solo, phasedDB := open(true), open(true)
	var workers []*seedb.DB
	var urls []string
	for range 2 {
		w := seedb.Open()
		srv := httptest.NewServer(frontend.New(w, nil, nil))
		t.Cleanup(srv.Close)
		workers = append(workers, w)
		urls = append(urls, srv.URL)
	}
	placed := open(false)
	if _, err := placed.PlaceRemote(ctx, urls, 10*time.Second, seedb.ClusterConfig{Replication: 2}); err != nil {
		t.Fatal(err)
	}
	targets := []struct {
		name      string
		db, plain *seedb.DB
		opts      seedb.Options
	}{
		{"solo", solo, plain, opts},
		{"phased", phasedDB, plainPhased, phased},
		{"placed rf=2", placed, plain, opts},
	}

	extra := seedb.SuperstoreTable("extra", 1_500, 4)
	batch := make([][]seedb.Value, extra.NumRows())
	for i := range batch {
		batch[i] = extra.Row(i)
	}
	const appendRows = ""
	for _, pred := range []string{"category = 'Furniture'", "segment = 'Consumer'", appendRows, "ship_mode = 'First Class'", "category = 'Furniture'"} {
		if pred == appendRows {
			for _, db := range []*seedb.DB{plain, plainPhased, solo, phasedDB, placed} {
				if _, err := db.Append("orders", batch); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		sql := "SELECT * FROM orders WHERE " + pred
		for _, tg := range targets {
			want, err := tg.plain.RecommendSQL(ctx, sql, tg.opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tg.db.RecommendSQL(ctx, sql, tg.opts)
			if err != nil {
				t.Fatalf("%s, %s: %v", tg.name, pred, err)
			}
			if g, w := renderAnswer(got), renderAnswer(want); g != w {
				t.Errorf("%s, %s: answers differently from a store-free instance:\n%s\nvs\n%s", tg.name, pred, g, w)
			}
		}
	}

	// The answers above came through the shared runs, not around them.
	for _, db := range []*seedb.DB{solo, phasedDB, workers[0], workers[1]} {
		if st := db.IncrementalStats(); st.Hits == 0 || st.RowsReused == 0 {
			t.Fatalf("a store served no run: %+v", st)
		}
	}
}
