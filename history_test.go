package seedb_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"seedb"
	"seedb/internal/frontend"
)

// TestSameRequestSameBytesAcrossHistory: a recommendation is a function
// of the request and the table contents — not of what the process was
// asked before, nor of where the scans ran. One request goes to a fresh
// instance, to one that has already served 200 recommendations
// filtering on correlated columns, to a placed coordinator over two
// HTTP workers, and to one of those workers' own instance; every scored
// view, its utility, what it represents and the pruned dimensions must
// render byte-identically.
func TestSameRequestSameBytesAcrossHistory(t *testing.T) {
	ctx := context.Background()
	const query = "SELECT * FROM orders WHERE ship_mode = 'First Class'"
	fresh := func() *seedb.DB {
		db := seedb.Open()
		if err := db.RegisterTable(seedb.SuperstoreTable("orders", 5_000, 42)); err != nil {
			t.Fatal(err)
		}
		return db
	}

	used := fresh()
	for i := range 200 {
		sql := "SELECT * FROM orders WHERE subcategory = 'Chairs'"
		if i%2 == 1 {
			sql = "SELECT * FROM orders WHERE state = 'California'"
		}
		if _, err := used.RecommendSQL(ctx, sql, seedb.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}

	var workers []*seedb.DB
	var urls []string
	for range 2 {
		w := fresh()
		srv := httptest.NewServer(frontend.New(w, nil, nil))
		defer srv.Close()
		workers = append(workers, w)
		urls = append(urls, srv.URL)
	}
	placed := fresh()
	if _, err := placed.PlaceRemote(ctx, urls, 10*time.Second, seedb.PlacementConfig{Replication: 2}); err != nil {
		t.Fatal(err)
	}
	targets := []struct {
		name string
		db   *seedb.DB
	}{{"fresh", fresh()}, {"after 200 requests", used}, {"placed rf=2", placed}, {"worker solo", workers[0]}}

	for _, op := range []string{"deviation", "outlier"} {
		opts := seedb.DefaultOptions()
		opts.Operator = op
		opts.K = 1_000 // every scored view
		var want string
		for i, tg := range targets {
			res, err := tg.db.RecommendSQL(ctx, query, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", op, tg.name, err)
			}
			got := renderAnswer(res)
			if i == 0 {
				want = got
			} else if got != want {
				t.Errorf("%s: %s answers differently from %s:\n%s\nvs\n%s", op, tg.name, targets[0].name, got, want)
			}
		}
	}
}

// renderAnswer serializes everything a request answers — each view with
// its full-precision utility and the dimensions it represents, then the
// pruned dimensions — so byte equality means the same answer.
func renderAnswer(res *seedb.Result) string {
	var b strings.Builder
	for _, rec := range res.Recommendations {
		fmt.Fprintf(&b, "%d\t%s\tutility=%.17g\trepresents=%v\n", rec.Rank, rec.Data.View, rec.Data.Utility, rec.Represents)
	}
	dims := make([]string, 0, len(res.Stats.PrunedDims))
	for d := range res.Stats.PrunedDims {
		dims = append(dims, d)
	}
	slices.Sort(dims)
	for _, d := range dims {
		fmt.Fprintf(&b, "pruned %s: %s\n", d, res.Stats.PrunedDims[d])
	}
	return b.String()
}
